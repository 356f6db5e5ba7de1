package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Tracing. Spans are recorded by the benchmark around its own calls into
// each layer's public functions; nothing inside the program changes. The
// spans stay in memory and are written out as JSON lines when the run
// ends.

// span is one timed call. IDs start at 1; Parent 0 marks a root. Spans of
// one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// request starts a new request identifier for the spans that follow.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

// end closes span id. Closing a span twice is a bug in the caller.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	if t.spans[id-1].End != 0 {
		panic(fmt.Sprintf("span %d (%s) closed twice", id, t.spans[id-1].Name))
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once, and child time outside the parent's interval is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}

// unaccountedShares returns, for every root span named root, the share of
// its duration that none of its children covers.
func unaccountedShares(spans []span, root string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 && s.dur() > 0 {
			out = append(out, float64(self[s.ID])/float64(s.dur()))
		}
	}
	return out
}
