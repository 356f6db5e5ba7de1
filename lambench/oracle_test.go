package main

import (
	"math/rand"
	"strconv"
	"testing"

	"laminar/internal/core"
	"laminar/internal/search"
)

func TestExactTopKRanksByCosine(t *testing.T) {
	q := []float32{1, 0}
	docs := []oracleDoc{
		{hitKey{"pe", 1}, []float32{0, 1}},       // orthogonal
		{hitKey{"pe", 2}, []float32{2, 0}},       // same direction, longer
		{hitKey{"workflow", 3}, []float32{1, 1}}, // 45 degrees
		{hitKey{"pe", 4}, []float32{-1, 0}},      // opposite
	}
	got := exactTopK(q, docs, 3)
	want := []hitKey{{"pe", 2}, {"workflow", 3}, {"pe", 1}}
	if !sameKeys(got, want) {
		t.Fatalf("exactTopK = %v, want %v", got, want)
	}
	if got := exactTopK(q, docs, 10); len(got) != 4 {
		t.Fatalf("k above the corpus size returned %d docs, want 4", len(got))
	}
}

func TestExactTopKBreaksTiesByKindThenID(t *testing.T) {
	v := []float32{1, 0}
	docs := []oracleDoc{{hitKey{"workflow", 1}, v}, {hitKey{"pe", 9}, v}, {hitKey{"pe", 2}, v}}
	want := []hitKey{{"pe", 2}, {"pe", 9}, {"workflow", 1}}
	if got := exactTopK(v, docs, 3); !sameKeys(got, want) {
		t.Fatalf("tie order = %v, want %v", got, want)
	}
}

// The exact scan must agree with the registry's flat index, which is
// exact too, on the program's own embeddings.
func TestExactTopKMatchesBruteForceSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := genDescribeCorpus(rng, 300, 0)
	var pes []core.PERecord
	var docs []oracleDoc
	for i, pe := range c.pes {
		emb := search.EmbedDescription(pe.desc.text())
		pes = append(pes, core.PERecord{PEID: i + 1, PEName: pe.name, DescEmbedding: emb})
		docs = append(docs, oracleDoc{hitKey{"pe", i + 1}, emb})
	}
	for _, q := range genDescQueries(rng, c, 20) {
		emb := search.EmbedDescription(q.text)
		want := keysOf(search.Semantic(q.text, emb, pes, 10))
		if got := exactTopK(emb, docs, 10); overlap(got, want) < 1 {
			t.Fatalf("query %q: exact scan %v, brute-force search %v", q.text, got, want)
		}
	}
}

func TestOverlap(t *testing.T) {
	a := []hitKey{{"pe", 1}, {"pe", 2}, {"pe", 3}, {"pe", 4}}
	b := []hitKey{{"pe", 4}, {"pe", 5}, {"workflow", 1}, {"pe", 1}}
	if got := overlap(a, b); got != 0.5 {
		t.Fatalf("overlap = %v, want 0.5", got)
	}
	if got := overlap(nil, nil); got != 1 {
		t.Fatalf("overlap of empty lists = %v, want 1", got)
	}
}

func TestTextMatch(t *testing.T) {
	cases := []struct {
		q, target string
		want      bool
	}{
		{"prime", "isPrime", true},                                // partial match inside an identifier
		{"is prime", "IsPrime", true},                             // spaces removed on both sides
		{"sensor readings", "filters readings of a sensor", true}, // every word present
		{"sensor readings", "filters sensor data", false},
		{"", "anything", false},
		{"Log-Lines", "log lines by severity", true}, // punctuation collapses
	}
	for _, c := range cases {
		if got := textMatch(c.q, c.target); got != c.want {
			t.Errorf("textMatch(%q, %q) = %v, want %v", c.q, c.target, got, c.want)
		}
	}
}

// The text oracle agrees with the paper's text search on a generated
// corpus whenever the limit does not cut the result.
func TestTextOracleMatchesTextSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := genDescribeCorpus(rng, 500, 0)
	m := newMirror()
	var pes []core.PERecord
	for i, pe := range c.pes {
		rec := core.PERecord{PEID: i + 1, PEName: pe.name, Description: pe.desc.text()}
		pes = append(pes, rec)
		m.add(&record{key: hitKey{"pe", i + 1}, name: pe.name, normText: []string{normText(rec.PEName), normText(rec.Description)}})
	}
	for _, q := range genTextQueries(rng, 500, 30) {
		hits := search.Text(q, core.SearchBoth, pes, nil, 1000)
		if got := m.textMatches(q); got != len(hits) {
			t.Fatalf("query %q: oracle counts %d, text search returned %d", q, got, len(hits))
		}
	}
}

func TestPrimeDigitCounts(t *testing.T) {
	// Primes ≤ 30: 2 3 5 7 11 13 17 19 23 29.
	want := map[string]int{"1": 5, "2": 3, "3": 3, "5": 1, "7": 2, "9": 2}
	if got := primeDigitCounts(30); !sameCounts(got, want) {
		t.Fatalf("primeDigitCounts(30) = %v, want %v", got, want)
	}
	if got := primeDigitCounts(1); len(got) != 0 {
		t.Fatalf("primeDigitCounts(1) = %v, want none", got)
	}
	// 168 primes below 1000: the digit counts must add up to their digits.
	total := 0
	for _, n := range primeDigitCounts(1000) {
		total += n
	}
	digits := 0
	for p := 2; p < 1000; p++ {
		isPrime := true
		for d := 2; d*d <= p; d++ {
			if p%d == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			digits += len(strconv.Itoa(p))
		}
	}
	if total != digits {
		t.Fatalf("digit total %d, want %d", total, digits)
	}
}

func TestDigitCountsOfFoldsInstances(t *testing.T) {
	outs := []any{[]any{"1", 2.0}, []any{"3", 1.0}, []any{"1", 3.0}}
	got, ok := digitCountsOf(outs)
	if !ok || !sameCounts(got, map[string]int{"1": 5, "3": 1}) {
		t.Fatalf("digitCountsOf = %v, %v", got, ok)
	}
	for _, bad := range [][]any{{"1"}, {[]any{1.0, 2.0}}, {[]any{"1", 2.5}}, {[]any{"1"}}} {
		if _, ok := digitCountsOf(bad); ok {
			t.Errorf("digitCountsOf(%v) accepted a malformed output", bad)
		}
	}
}
