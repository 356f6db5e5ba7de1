package main

import (
	"strings"
	"testing"
	"time"
)

// TestTinyRuns runs every workload end to end at tiny size, untraced and
// traced, and requires a complete, correct result with no failed
// operation.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				b := newBench(tinySpec(specs[name]), 7, time.Second, t.TempDir())
				b.spanDir = t.TempDir()
				res, err := b.execute(traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, failed %d of %d: %v", res.Correct, res.Failed, res.Attempted, b.failures)
				}
				want := len(endToEndUnits)
				if traced {
					want = len(perLayerUnits())
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
				for n, m := range res.Metrics {
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
			})
		}
	}
}

// TestPoolRunOutFails requires a run whose query pool runs out before the
// phase's deadline to fail rather than report a shorter phase.
func TestPoolRunOutFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	sp := tinySpec(specs["complete"])
	sp.codePEs, sp.maxRounds = 20, 0
	b := newBench(sp, 7, time.Minute, t.TempDir())
	_, err := b.execute(false)
	if err == nil || !strings.Contains(err.Error(), "query pool ran out") {
		t.Fatalf("err = %v, want a query pool that ran out", err)
	}
}
