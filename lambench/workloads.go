package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
)

// The three workloads. Each sends its users' main mix in rounds during
// the timed phase. Every run reports every end-to-end metric, so each
// round also carries a fixed few requests of the kinds the main mix leaves
// out; they are sampled across the whole phase rather than in one burst.
var specs = map[string]spec{
	// describe: natural-language description search over a large corpus,
	// with plain text search beside it; nothing writes during the phase.
	"describe": {
		name: "describe", descPEs: 5000, workflows: 250,
		block: 10, textBlock: 2, roundRuns: 2,
		sideWrites: 16, restarts: 5,
	},
	// complete: code completion over a corpus of summarized PEs, with a
	// registration and a removal per round keeping its size constant.
	"complete": {
		name: "complete", codePEs: 3000, codeQuery: true,
		block: 10, roundText: 1, roundRuns: 2,
		restarts: 5,
	},
	// execute: the registered prime-digit workflow under MULTI and REDIS,
	// with SIMPLE as the single-threaded baseline.
	"execute": {
		name: "execute", descPEs: 600, workflows: 30,
		runBlock: 3, roundQueries: 2, roundText: 1,
		sideWrites: 16,
		// A restart of this small registry takes ~0.1 s; more of them
		// steady the median.
		restarts: 15,
	},
}

// tinySpec shrinks a workload for the package's own tests.
func tinySpec(sp spec) spec {
	sp.descPEs = min(sp.descPEs, 150)
	sp.workflows = min(sp.workflows, 6)
	sp.codePEs = min(sp.codePEs, 150)
	sp.block = min(sp.block, 2)
	sp.sideWrites = min(sp.sideWrites, 2)
	sp.restarts = 1
	sp.maxRounds = 3
	return sp
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute performs one whole run: a setup, warm-up, the main phase, the
// side block, the shutdown save and the restarts, then the further setups
// whose median is setup_s. A traced run sets up once, runs the phases
// first untraced and then traced, and reports the per-layer metrics
// instead of the end-to-end ones.
func (b *bench) execute(traced bool) (result, error) {
	b.mark("start")
	c := b.genCorpus()
	path := filepath.Join(b.dir, "registry.json")
	dep, took, err := b.setup(c, path)
	if err != nil {
		return result{}, err
	}
	b.dep = dep
	b.setupTimes = append(b.setupTimes, took)
	b.heapMB = liveHeapMB()
	b.mark("setup")
	if err := b.loadMirror(c); err != nil {
		b.dep.close()
		return result{}, err
	}
	b.eng = engine.New(engine.Config{})
	b.preparePools(c)
	b.mark("mirror and query pools")

	b.stage = stWarmup
	b.mainRound()

	var res result
	if traced {
		res, err = b.tracedPhases()
	} else {
		_, _, err = b.phases()
	}
	if err != nil {
		b.dep.close()
		return result{}, err
	}
	if err := b.restart(); err != nil {
		return result{}, err
	}
	b.mark("shutdown save and restarts")
	if traced {
		if err := b.addStorageMetrics(res.Metrics); err != nil {
			return result{}, err
		}
	} else {
		// The further setups come last, so the phase and the restarts
		// share the process with no deployment but their own.
		for i := 1; i < setupsPerRun; i++ {
			dep, took, err := b.setup(c, path)
			if err != nil {
				return result{}, err
			}
			dep.close()
			b.setupTimes = append(b.setupTimes, took)
			b.mark("setup")
		}
		if res.Metrics, err = b.endToEnd(); err != nil {
			return result{}, err
		}
	}
	res.Correct = b.mismatches == 0
	res.Attempted = b.attempted
	res.Failed = b.failed
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	return res, nil
}

// phases runs the timed main phase and then the side block, with /metrics
// scraped before and after. A retrain during the phases counts as a
// mismatch: setup ended with a full retrain, and a background k-means
// landing in the phase would move the search latencies and recall.
func (b *bench) phases() (before, after scrape, err error) {
	if before, err = fetchMetrics(b.dep.url); err != nil {
		return nil, nil, err
	}
	if !before.has(retrainsFamily) {
		return nil, nil, fmt.Errorf("/metrics has no %s", retrainsFamily)
	}
	runtime.GC()
	b.stage = stMain
	deadline := time.Now().Add(b.seconds)
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		if b.spec.maxRounds > 0 && rounds == b.spec.maxRounds {
			break
		}
		if !b.mainRound() {
			return nil, nil, fmt.Errorf("a query pool ran out after %d rounds, %.1fs before the end of the main phase",
				rounds, time.Until(deadline).Seconds())
		}
	}
	b.mark(fmt.Sprintf("main phase, %d rounds", rounds))
	runtime.GC()
	b.stage = stSide
	b.sideBlock()
	b.mark("side block")
	if after, err = fetchMetrics(b.dep.url); err != nil {
		return nil, nil, err
	}
	if n := delta(before, after, retrainsFamily, nil); n != 0 {
		b.mismatch("timed phase", fmt.Sprintf("%v index retrains during the phase, want 0", n))
	}
	return before, after, nil
}

const retrainsFamily = "laminar_index_retrains_total"

// mark reports on standard error how long the run spent since the
// previous mark.
func (b *bench) mark(what string) {
	now := time.Now()
	if !b.lastMark.IsZero() {
		fmt.Fprintf(os.Stderr, "%-28s %8.2fs\n", what, now.Sub(b.lastMark).Seconds())
	}
	b.lastMark = now
}

// liveHeapMB forces a GC and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// preparePools draws the query pools. Description and text queries come
// from the describe-style corpus; code queries are cut from live PEs as
// the phase goes (see nextCodeQuery).
func (b *bench) preparePools(c *corpus) {
	if len(c.desc.pes) > 0 {
		// Each record yields 32 distinct queries (8 leads × 4 dropped
		// slots); asking for at most 16 per record keeps the draw quick.
		n := min(8000, 16*len(c.desc.pes))
		b.descQ = genDescQueries(b.rng, c.desc, n)
		b.textQ = genTextQueries(b.rng, len(c.desc.pes), 2000)
	}
	if b.spec.codeQuery {
		for _, i := range b.rng.Perm(len(c.code)) {
			if r := b.mirror.byName["pe/"+c.code[i].name]; r != nil {
				b.targets = append(b.targets, r)
			}
		}
		b.textQ = genCodeTextQueries(b.rng)
	}
}

// nextDesc takes n unused description queries, or nil when the pool is
// exhausted.
func (b *bench) nextDesc(n int) []query {
	if len(b.descQ) < n {
		return nil
	}
	out := make([]query, n)
	for i, q := range b.descQ[:n] {
		out[i] = query{text: q.text, target: q.kind + "/" + q.target}
	}
	b.descQ = b.descQ[n:]
	return out
}

// nextCode cuts n completion queries from live PEs never queried before.
func (b *bench) nextCode(n int) []query {
	var out []query
	for len(out) < n && len(b.targets) > 0 {
		r := b.targets[0]
		b.targets = b.targets[1:]
		if b.mirror.live[r.key] == nil {
			continue
		}
		b.queried = append(b.queried, r)
		out = append(out, query{
			text:   codePrefix(r.source, 6+b.rng.Intn(2)),
			code:   true,
			target: "pe/" + r.name,
		})
	}
	if len(out) < n {
		return nil
	}
	return out
}

func (b *bench) nextText(n int) []string {
	if len(b.textQ) < n {
		return nil
	}
	out := b.textQ[:n]
	b.textQ = b.textQ[n:]
	return out
}

func (b *bench) runInput() int {
	return runMin + b.rng.Intn(runMax-runMin+1)
}

// mainRound sends one round of the workload's mix. It reports false,
// sending nothing, when a query pool cannot fill the round.
func (b *bench) mainRound() bool {
	sp := b.spec
	var qs, cross []query
	var ts []string
	switch {
	case sp.codeQuery:
		qs = b.nextCode(sp.block)
	case sp.block > 0:
		qs = b.nextDesc(sp.block)
	}
	cross = b.nextDesc(sp.roundQueries)
	ts = b.nextText(sp.textBlock + sp.roundText)
	if (sp.block > 0 && qs == nil) || (sp.roundQueries > 0 && cross == nil) || (sp.textBlock+sp.roundText > 0 && ts == nil) {
		return false
	}
	for _, kind := range runKinds {
		for i := 0; i < sp.runBlock; i++ {
			b.run(kind, b.runInput())
		}
	}
	b.searchBlocks(qs)
	b.searchBlocks(cross)
	for _, t := range ts {
		b.textSearch(t)
	}
	if sp.codeQuery {
		if r := b.register(genCodePE(b.rng, b.nextPE)); r != nil {
			b.targets = append(b.targets, r)
		}
		b.nextPE++
		// The oldest PE already queried leaves, so the corpus stays the
		// same size and no pending query loses its target.
		if len(b.queried) > 0 {
			victim := b.queried[0]
			b.queried = b.queried[1:]
			b.remove(victim)
		}
	}
	for i := 0; i < sp.roundRuns; i++ {
		b.run(runKinds[(b.round*sp.roundRuns+i)%len(runKinds)], b.runInput())
	}
	b.round++
	return true
}

// searchBlocks sends the queries once in each mode, one mode block after
// the other.
func (b *bench) searchBlocks(qs []query) {
	for _, mode := range searchModes {
		for _, q := range qs {
			b.search(q, mode)
		}
	}
}

// sideBlock sends register+remove pairs after the main phase, for the
// per-layer write metrics of workloads whose main phase does not write.
func (b *bench) sideBlock() {
	for i := 0; i < b.spec.sideWrites; i++ {
		r := b.register(genCodePE(b.rng, b.nextPE))
		b.nextPE++
		if r != nil {
			b.remove(r)
		}
	}
}

// probeQueries are fresh queries for the restart check.
func (b *bench) probeQueries() []query {
	if b.spec.codeQuery {
		return b.nextCode(probeCount)
	}
	return b.nextDesc(probeCount)
}

// restart saves the registry as a shutdown would, then starts fresh
// servers from the snapshot. Each answers a fixed probe set, which must
// return exactly the hit lists the live server gave before shutdown;
// restart_s is the time from start to the first probe's answer.
func (b *bench) restart() error {
	b.stage = stProbe
	probes := b.probeQueries()
	if probes == nil {
		b.dep.close()
		return fmt.Errorf("no queries left for the restart probes")
	}
	modes := []string{kANN, kHybrid}
	want := map[string][]hitKey{}
	for _, q := range probes {
		for _, mode := range modes {
			if hits, ok := b.search(q, mode); ok {
				want[mode+"\x00"+q.text] = hits
			}
		}
	}
	b.dep.close()
	id := b.tr.begin("storage.save", 0)
	err := b.dep.srv.SaveRegistry()
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("shutdown save: %w", err)
	}
	if b.saveBytes, err = snapshotBytes(b.dep.path); err != nil {
		return err
	}
	live := b.dep
	defer func() { b.dep = live }()
	for i := 0; i < b.spec.restarts; i++ {
		runtime.GC()
		start := time.Now()
		srv, url, err := startServer(live.path)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		cli, err := login(url, benchUser)
		if err != nil {
			srv.Close()
			return fmt.Errorf("restart: %w", err)
		}
		b.dep = &deployment{srv: srv, url: url, cli: cli, path: live.path}
		for j, q := range probes {
			for k, mode := range modes {
				got, ok := b.search(q, mode)
				if j == 0 && k == 0 {
					b.restartTimes = append(b.restartTimes, b.lastReply.Sub(start))
				}
				w, had := want[mode+"\x00"+q.text]
				if ok && had && !sameKeys(got, w) {
					b.mismatch(fmt.Sprintf("restart probe %.40q (%s)", q.text, mode), fmt.Sprintf("hits %v, before shutdown %v", got, w))
				}
			}
		}
		b.dep.close()
		if b.tr != nil {
			if err := b.replayLoad(live.path); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayLoad loads the snapshot into a fresh store configured as the
// server configures its own, inside a storage.load span.
func (b *bench) replayLoad(path string) error {
	opts := serverOptions("")
	store := registry.NewStore()
	cfg := index.ClusteredConfig{RecallTarget: opts.IndexRecallTarget, RetrainCooldown: opts.IndexRetrainCooldown}
	store.ConfigureIndex(func() index.VectorIndex { return index.NewClustered(cfg) })
	var err error
	b.tr.do("storage.load", 0, func() { err = store.Load(path) })
	if err != nil {
		return fmt.Errorf("load replay: %w", err)
	}
	return nil
}
