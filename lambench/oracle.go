package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"laminar/internal/core"
)

// Oracles: computations the benchmark makes on its own, apart from the
// program, to check every answer it gets back.

// hitKey identifies a registry record across both kinds.
type hitKey struct {
	kind string // "pe" or "workflow"
	id   int
}

func keysOf(hits []core.SearchHit) []hitKey {
	out := make([]hitKey, len(hits))
	for i, h := range hits {
		out[i] = hitKey{h.Kind, h.ID}
	}
	return out
}

// oracleDoc is one candidate of an exact scan.
type oracleDoc struct {
	key hitKey
	vec []float32
}

// cosine computes the cosine similarity in float64 without assuming the
// vectors are normalized.
func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// exactTopK scans every document and returns the k best by cosine
// similarity to q; ties break by kind, then id.
func exactTopK(q []float32, docs []oracleDoc, k int) []hitKey {
	type scored struct {
		key   hitKey
		score float64
	}
	all := make([]scored, len(docs))
	for i, d := range docs {
		all[i] = scored{d.key, cosine(q, d.vec)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if all[i].key.kind != all[j].key.kind {
			return all[i].key.kind < all[j].key.kind
		}
		return all[i].key.id < all[j].key.id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]hitKey, k)
	for i := range out {
		out[i] = all[i].key
	}
	return out
}

// overlap is |got ∩ want| / |want| (1 when want is empty).
func overlap(got, want []hitKey) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[hitKey]bool, len(got))
	for _, g := range got {
		in[g] = true
	}
	n := 0
	for _, w := range want {
		if in[w] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

// sameKeys reports whether two ranked lists name the same records in the
// same order.
func sameKeys(a, b []hitKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Text search oracle: the paper's partial matching rule (Section 4.1),
// written out independently. Both sides are lowercased with every run of
// non-alphanumerics collapsed to one space; a target matches when the
// query with spaces removed is a substring of the target with spaces
// removed, or when every query word occurs in the target.

func normText(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}

func textMatch(query, target string) bool {
	return matchNormalized(normText(query), normText(target))
}

func matchNormalized(q, t string) bool {
	if q == "" {
		return false
	}
	if strings.Contains(strings.ReplaceAll(t, " ", ""), strings.ReplaceAll(q, " ", "")) {
		return true
	}
	for _, w := range strings.Fields(q) {
		if !strings.Contains(t, w) {
			return false
		}
	}
	return true
}

// primeDigitCounts counts, over every prime p ≤ n, how often each decimal
// digit occurs in p — computed with a sieve of Eratosthenes.
func primeDigitCounts(n int) map[string]int {
	out := map[string]int{}
	if n < 2 {
		return out
	}
	composite := make([]bool, n+1)
	for p := 2; p <= n; p++ {
		if composite[p] {
			continue
		}
		for m := p * p; m <= n; m += p {
			composite[m] = true
		}
		for _, ch := range strconv.Itoa(p) {
			out[string(ch)]++
		}
	}
	return out
}

// digitCountsOf folds a run's DigitCount.output emissions — (digit, count)
// pairs, possibly several per digit when the group-by runs on more than
// one instance — into one count per digit. ok is false on any value of
// the wrong shape.
func digitCountsOf(outputs []any) (counts map[string]int, ok bool) {
	counts = map[string]int{}
	for _, v := range outputs {
		pair, isList := v.([]any)
		if !isList || len(pair) != 2 {
			return nil, false
		}
		digit, isStr := pair[0].(string)
		n, isNum := pair[1].(float64)
		if !isStr || !isNum || n != math.Trunc(n) {
			return nil, false
		}
		counts[digit] += int(n)
	}
	return counts, true
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
