package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json must name exactly the metrics a run reports, with the
// same units.
func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, runs report %d", len(e2e), len(endToEndUnits))
	}
	for name, unit := range endToEndUnits {
		if e2e[name] != unit {
			t.Errorf("end-to-end metric %s: BENCHMARK.json unit %q, reported %q", name, e2e[name], unit)
		}
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	want := perLayerUnits()
	if len(layer) != len(want) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, traced runs report %d", len(layer), len(want))
	}
	for _, w := range want {
		if layer[w.name] != w.unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, reported %q", w.name, layer[w.name], w.unit)
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}
