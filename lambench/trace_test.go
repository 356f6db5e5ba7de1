package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sp builds a span with times in microseconds.
func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start * 1000, End: end * 1000}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "request", 0, 100),
		sp(2, 1, "embed", 0, 10),
		sp(3, 1, "http", 20, 90),
		sp(4, 3, "inner", 30, 40), // a grandchild does not count against the root
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20 * time.Microsecond, 2: 10 * time.Microsecond, 3: 60 * time.Microsecond, 4: 10 * time.Microsecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 10, 60),
		sp(2, 1, "a", 0, 30),  // starts before the parent: clipped to 10..30
		sp(3, 1, "b", 20, 40), // overlaps a
		sp(4, 1, "c", 50, 80), // ends after the parent: clipped to 50..60
	}
	// Covered: 10..40 and 50..60 = 40µs of 50µs.
	if got := selfTimes(spans)[1]; got != 10*time.Microsecond {
		t.Fatalf("self time = %v, want 10µs", got)
	}
}

func TestUnaccountedShares(t *testing.T) {
	spans := []span{
		sp(1, 0, "request.ann", 0, 100),
		sp(2, 1, "embed.desc", 0, 25),
		sp(3, 1, "server.http", 25, 75),
		sp(4, 0, "request.ann", 200, 300),
		sp(5, 4, "server.http", 200, 300),
		sp(6, 0, "registry.ann", 300, 320), // another root name: ignored
	}
	got := unaccountedShares(spans, "request.ann")
	if len(got) != 2 || !near(got[0], 0.25) || !near(got[1], 0) {
		t.Fatalf("unaccounted shares = %v, want [0.25 0]", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.request()
	root := tr.begin("request.text", 0)
	tr.do("server.http", root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].dur() < time.Millisecond || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Fatalf("durations: root %v, child %v", tr.spans[0].dur(), tr.spans[1].dur())
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID != n+1 {
			t.Fatalf("line %d: %v %+v", n, err, s)
		}
	}
	if n != 2 {
		t.Fatalf("wrote %d spans, want 2", n)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.request()
	id := tr.begin("x", 0)
	ran := false
	tr.do("y", id, func() { ran = true })
	tr.end(id)
	if id != 0 || !ran {
		t.Fatalf("nil tracer: id %d, ran %v", id, ran)
	}
}

func TestEndingASpanTwicePanics(t *testing.T) {
	tr := newTracer()
	id := tr.begin("x", 0)
	time.Sleep(time.Microsecond)
	tr.end(id)
	defer func() {
		if recover() == nil {
			t.Fatal("second end did not panic")
		}
	}()
	tr.end(id)
}
