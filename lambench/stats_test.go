package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6}
	for p, want := range cases {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no values must be NaN")
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// quartiles must equal Python's statistics.quantiles(xs, n=4), the
// default exclusive method; the expected values are what Python returns.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates beyond the data, as Python does
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestDurationConversions(t *testing.T) {
	ds := []time.Duration{1500 * time.Microsecond, 2 * time.Millisecond}
	if ms := millis(ds); !near(ms[0], 1.5) || !near(ms[1], 2) {
		t.Fatalf("millis = %v", ms)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP laminar_http_request_seconds x
# TYPE laminar_http_request_seconds histogram
laminar_http_request_seconds_sum{route="POST /registry/{user}/search"} 0.5
laminar_http_request_seconds_count{route="POST /registry/{user}/search"} 4
laminar_index_query_stops_total{index="desc",rule="proof"} 3
laminar_index_query_stops_total{index="code",rule="proof"} 2
laminar_index_query_stops_total{index="code",rule="exhausted"} 7
laminar_cache_hits_total{cache="a,b"} 1
laminar_process_goroutines 12
`
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("laminar_index_query_stops_total", map[string]string{"rule": "proof"}); got != 5 {
		t.Fatalf("proof stops = %v, want 5", got)
	}
	if got := s.sum("laminar_cache_hits_total", map[string]string{"cache": "a,b"}); got != 1 {
		t.Fatalf("quoted comma label = %v, want 1", got)
	}
	if got := s.sum("laminar_process_goroutines", nil); got != 12 {
		t.Fatalf("unlabelled gauge = %v", got)
	}
	var empty scrape
	route := map[string]string{"route": "POST /registry/{user}/search"}
	if got := histMean(empty, s, "laminar_http_request_seconds", route); !near(got, 0.125) {
		t.Fatalf("histMean = %v, want 0.125", got)
	}
	if got := histMean(s, s, "laminar_http_request_seconds", route); got != 0 {
		t.Fatalf("histMean over no observations = %v, want 0", got)
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("a line without a value parsed")
	}
}
