package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// End-to-end metrics: what a user of the deployment sees. Every run
// reports all of them, each from exactly one request kind.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"heap_mb":         "MiB",
	"ops_per_s":       "1/s",
	"ann_p50_ms":      "ms",
	"hybrid_p50_ms":   "ms",
	"reranked_p50_ms": "ms",
	"search_p95_ms":   "ms",
	"text_p50_ms":     "ms",
	"register_p50_ms": "ms",
	"restart_s":       "s",
	"recall_at_10":    "ratio",
	"hit_at_10":       "ratio",
	"run_p50_ms":      "ms",
	"redis_p50_ms":    "ms",
	"records_per_s":   "1/s",
}

// stageOf picks the stage a kind's samples come from: the main phase
// when it sends that kind, else the setup, else the side block.
func (b *bench) stageOf(kind string) string {
	for _, st := range []string{stMain, stSetup, stSide} {
		if len(b.samples[st+"/"+kind]) > 0 {
			return st
		}
	}
	return ""
}

func (b *bench) kindSamples(kind string) []time.Duration {
	return b.samples[b.stageOf(kind)+"/"+kind]
}

func (b *bench) endToEnd() (map[string]metric, error) {
	v := map[string]float64{}
	secs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	v["setup_s"] = median(secs(b.setupTimes))
	v["restart_s"] = median(secs(b.restartTimes))
	v["heap_mb"] = b.heapMB
	p50 := map[string]string{
		kANN: "ann_p50_ms", kHybrid: "hybrid_p50_ms", kReranked: "reranked_p50_ms",
		kText: "text_p50_ms", kRegister: "register_p50_ms", kMulti: "run_p50_ms", kRedis: "redis_p50_ms",
	}
	for kind, name := range p50 {
		s := b.kindSamples(kind)
		if len(s) == 0 {
			return nil, fmt.Errorf("no %s requests completed: %s has no samples", kind, name)
		}
		v[name] = median(millis(s))
	}
	searchStage := b.stageOf(kANN)
	var searches []time.Duration
	for _, mode := range searchModes {
		searches = append(searches, b.samples[searchStage+"/"+mode]...)
	}
	v["search_p95_ms"] = percentile(millis(searches), 0.95)

	var ops int
	var busy time.Duration
	for _, kind := range allKinds {
		for _, d := range b.samples[stMain+"/"+kind] {
			ops++
			busy += d
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("the main phase completed no request")
	}
	v["ops_per_s"] = float64(ops) / busy.Seconds()
	runStage := b.stageOf(kMulti)
	v["records_per_s"] = float64(b.runRecs[runStage]) / b.runTime[runStage].Seconds()
	if b.recallN == 0 || b.hitN == 0 {
		return nil, fmt.Errorf("no labelled search completed")
	}
	v["recall_at_10"] = b.recallSum / float64(b.recallN)
	v["hit_at_10"] = b.hitSum / float64(b.hitN)

	out := map[string]metric{}
	for name, unit := range endToEndUnits {
		x, ok := v[name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metric{x, unit}
	}
	return out, nil
}

// ---- traced run ----

// Routes named in laminar_http_request_seconds.
var (
	routeNames = []string{"search", "add_pe", "remove_pe", "run"}
	routes     = map[string]string{
		"search":    "POST /registry/{user}/search",
		"add_pe":    "POST /registry/{user}/pe/add",
		"remove_pe": "DELETE /registry/{user}/pe/remove/id/{id}",
		"run":       "POST /execution/{user}/run",
	}
)

// Stop rules the adaptive clustered probe attributes queries to.
var stopRules = []string{"proof", "diminishing-returns", "max-probe", "exhausted"}

// workflowPEs are the prime-digit workflow's stages.
var workflowPEs = []string{"NumberSource", "TrialDivision", "DigitFanOut", "DigitCount"}

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit, in the order BENCHMARK.json names them.
func perLayerUnits() []metricName {
	out := []metricName{
		{"embed.desc_us", "us"}, {"embed.code_us", "us"}, {"summarize.pe_us", "us"},
	}
	for _, kind := range allKinds {
		out = append(out, metricName{"server.overhead_ms." + kind, "ms"})
	}
	for _, r := range routeNames {
		out = append(out, metricName{"server.route_ms." + r, "ms"})
	}
	for _, n := range []string{"ann", "hybrid", "reranked", "text", "add", "remove"} {
		out = append(out, metricName{"registry." + n + "_ms", "ms"})
	}
	out = append(out, metricName{"index.probe_shards", "count"}, metricName{"index.scanned_vectors", "count"})
	for _, rule := range stopRules {
		out = append(out, metricName{"index.stops." + rule, "count"})
	}
	out = append(out,
		metricName{"index.retrains", "count"},
		metricName{"lexical.search_ms", "ms"}, metricName{"lexical.docs", "count"}, metricName{"lexical.terms", "count"},
		metricName{"search.rrf_us", "us"}, metricName{"search.rerank_ms", "ms"}, metricName{"search.rerank_pool", "count"},
		metricName{"qcache.hits", "count"}, metricName{"qcache.misses", "count"}, metricName{"qcache.invalidations", "count"},
		metricName{"storage.save_ms", "ms"}, metricName{"storage.load_ms", "ms"}, metricName{"storage.bytes", "bytes"},
		metricName{"engine.execute_ms", "ms"}, metricName{"pype.build_ms", "ms"},
		metricName{"dataflow.simple_ms", "ms"}, metricName{"dataflow.multi_ms", "ms"}, metricName{"dataflow.redis_ms", "ms"},
	)
	for _, pe := range workflowPEs {
		out = append(out, metricName{"dataflow.process_us." + pe, "us"})
	}
	out = append(out, metricName{"dataflow.backpressure_waits", "count"})
	for _, kind := range allKinds {
		out = append(out, metricName{"trace.overhead_ms." + kind, "ms"})
	}
	for _, kind := range allKinds {
		out = append(out, metricName{"trace.unaccounted." + kind, "ratio"})
	}
	return out
}

type metricName struct{ name, unit string }

// checkPerLayer requires exactly the listed per-layer metrics, each with
// its listed unit.
func checkPerLayer(m map[string]metric) error {
	want := perLayerUnits()
	for _, w := range want {
		got, ok := m[w.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", w.name)
		}
		if got.Unit != w.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("per-layer metric %s = %v %s, want a number in %s", w.name, got.Value, got.Unit, w.unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("%d per-layer metrics, want %d", len(m), len(want))
	}
	return nil
}

// tracedPhases runs the main phase and side block twice on one setup:
// first untraced, with /metrics scraped around it for the counters, then
// traced, for the spans. The difference between the two passes' request
// latencies is the tracing overhead.
func (b *bench) tracedPhases() (result, error) {
	before, after, err := b.phases()
	if err != nil {
		return result{}, err
	}
	plain := b.samples
	b.samples = map[string][]time.Duration{}
	b.tr = newTracer()
	_, end, err := b.phases()
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	self := selfByName(b.tr.spans)
	spanMed := func(name, unit string, scale time.Duration) (float64, error) {
		s := self[name]
		if len(s) == 0 {
			return 0, fmt.Errorf("no %s spans", name)
		}
		xs := make([]float64, len(s))
		for i, d := range s {
			xs[i] = float64(d) / float64(scale)
		}
		return median(xs), nil
	}
	spanMetrics := []struct{ metric, span, unit string }{
		{"embed.desc_us", "embed.desc", "us"},
		{"embed.code_us", "embed.code", "us"},
		{"summarize.pe_us", "summarize.pe", "us"},
		{"registry.ann_ms", "registry.ann", "ms"},
		{"registry.hybrid_ms", "registry.hybrid", "ms"},
		{"registry.reranked_ms", "registry.reranked", "ms"},
		{"registry.text_ms", "registry.text", "ms"},
		{"registry.add_ms", "registry.add", "ms"},
		{"registry.remove_ms", "registry.remove", "ms"},
		{"lexical.search_ms", "lexical.search", "ms"},
		{"search.rrf_us", "search.rrf", "us"},
		{"search.rerank_ms", "search.rerank", "ms"},
		{"engine.execute_ms", "engine.execute", "ms"},
		{"pype.build_ms", "pype.build", "ms"},
		{"dataflow.simple_ms", "dataflow." + kSimple, "ms"},
		{"dataflow.multi_ms", "dataflow." + kMulti, "ms"},
		{"dataflow.redis_ms", "dataflow." + kRedis, "ms"},
	}
	scaleOf := map[string]time.Duration{"us": time.Microsecond, "ms": time.Millisecond}
	for _, sm := range spanMetrics {
		x, err := spanMed(sm.span, sm.unit, scaleOf[sm.unit])
		if err != nil {
			return result{}, err
		}
		m[sm.metric] = metric{x, sm.unit}
	}
	for _, kind := range allKinds {
		if len(b.overhead[kind]) == 0 {
			return result{}, fmt.Errorf("no %s requests were replayed", kind)
		}
		m["server.overhead_ms."+kind] = metric{median(millis(b.overhead[kind])), "ms"}
		st := b.stageOf(kind)
		tracedLat, plainLat := b.samples[st+"/"+kind], plain[st+"/"+kind]
		if len(tracedLat) == 0 || len(plainLat) == 0 {
			return result{}, fmt.Errorf("no %s requests in one of the passes", kind)
		}
		m["trace.overhead_ms."+kind] = metric{median(millis(tracedLat)) - median(millis(plainLat)), "ms"}
		shares := unaccountedShares(b.tr.spans, "request."+kind)
		if len(shares) == 0 {
			return result{}, fmt.Errorf("no %s request spans", kind)
		}
		m["trace.unaccounted."+kind] = metric{median(shares), "ratio"}
	}
	for name, route := range routes {
		m["server.route_ms."+name] = metric{1000 * histMean(before, after, "laminar_http_request_seconds", map[string]string{"route": route}), "ms"}
	}
	m["index.probe_shards"] = metric{histMean(before, after, "laminar_index_probe_shards", nil), "count"}
	m["index.scanned_vectors"] = metric{histMean(before, after, "laminar_index_scanned_vectors", nil), "count"}
	for _, rule := range stopRules {
		m["index.stops."+rule] = metric{delta(before, after, "laminar_index_query_stops_total", map[string]string{"rule": rule}), "count"}
	}
	m["index.retrains"] = metric{delta(before, end, retrainsFamily, nil), "count"}
	m["lexical.docs"] = metric{after.sum("laminar_lexical_docs", nil), "count"}
	m["lexical.terms"] = metric{after.sum("laminar_lexical_terms", nil), "count"}
	m["search.rerank_pool"] = metric{histMean(before, after, "laminar_rerank_pool_size", nil), "count"}
	local := map[string]string{"cache": "local"}
	m["qcache.hits"] = metric{delta(before, after, "laminar_cache_hits_total", local), "count"}
	m["qcache.misses"] = metric{delta(before, after, "laminar_cache_misses_total", local), "count"}
	m["qcache.invalidations"] = metric{delta(before, after, "laminar_cache_invalidations_total", local), "count"}
	for _, pe := range workflowPEs {
		m["dataflow.process_us."+pe] = metric{1e6 * histMean(before, after, "laminar_flow_process_seconds", map[string]string{"pe": pe}), "us"}
	}
	m["dataflow.backpressure_waits"] = metric{delta(before, after, "laminar_flow_backpressure_waits_total", nil), "count"}
	return result{Metrics: m}, nil
}

// addStorageMetrics adds the save and load spans the restart recorded,
// and writes the spans out.
func (b *bench) addStorageMetrics(m map[string]metric) error {
	self := selfByName(b.tr.spans)
	for _, name := range []string{"storage.save", "storage.load"} {
		if len(self[name]) == 0 {
			return fmt.Errorf("no %s spans", name)
		}
		m[name+"_ms"] = metric{median(millis(self[name])), "ms"}
	}
	m["storage.bytes"] = metric{float64(b.saveBytes), "bytes"}
	if err := checkPerLayer(m); err != nil {
		return err
	}
	return b.writeSpans()
}

// writeSpans stores the run's spans beside its other files and prints a
// per-name summary of self times to standard error.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.spanDir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(b.spanDir, fmt.Sprintf("spans-%s-%d.jsonl", b.spec.name, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	self := selfByName(b.tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "spans written to %s\n%-24s %8s %12s\n", path, "span", "count", "self p50 ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-24s %8d %12.4f\n", n, len(self[n]), median(millis(self[n])))
	}
	return nil
}
