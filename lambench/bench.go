package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/engine"
	"laminar/internal/search"
)

// Operation kinds. Every latency metric covers exactly one kind.
const (
	kANN      = "ann"
	kHybrid   = "hybrid"
	kReranked = "reranked"
	kText     = "text"
	kRegister = "register"
	kRemove   = "remove"
	kSimple   = "simple" // run under the SIMPLE mapping
	kMulti    = "multi"  // run under the MULTI mapping
	kRedis    = "redis"  // run under the REDIS mapping
)

var (
	searchModes = []string{kANN, kHybrid, kReranked}
	runKinds    = []string{kMulti, kRedis, kSimple}
	allKinds    = []string{kANN, kHybrid, kReranked, kText, kRegister, kRemove, kMulti, kRedis, kSimple}
	mappingOf   = map[string]string{kSimple: "SIMPLE", kMulti: "MULTI", kRedis: "REDIS"}
)

// Stages of a run. Samples are kept per stage so that no latency metric
// mixes, say, setup registrations with phase registrations.
const (
	stSetup  = "setup"
	stWarmup = "warmup"
	stMain   = "main"
	stSide   = "side"
	stProbe  = "probe"
)

const (
	searchLimit  = 10  // hits per semantic or code search
	textLimit    = 50  // hits per text search: above most match counts
	runProcs     = 6   // process budget of MULTI and REDIS runs
	setupsPerRun = 3   // setups of an untraced run; setup_s is their median
	probeCount   = 10  // restart probe queries
	setupClients = 2   // concurrent registration clients during setup
	runMin       = 480 // run input N is drawn from [runMin, runMax]
	runMax       = 520
)

// record mirrors one registry record the querying user can see.
type record struct {
	key      hitKey
	name     string
	normText []string // normalized fields text search matches on
	descVec  []float32
	codeVec  []float32 // PEs only, and only when code queries run
	source   string    // PE class source
}

// mirror is the benchmark's own account of what the registry holds for
// the querying user.
type mirror struct {
	live    map[hitKey]*record
	removed map[hitKey]bool
	byName  map[string]*record // "kind/name"
}

func newMirror() *mirror {
	return &mirror{live: map[hitKey]*record{}, removed: map[hitKey]bool{}, byName: map[string]*record{}}
}

func (m *mirror) add(r *record) {
	m.live[r.key] = r
	m.byName[r.key.kind+"/"+r.name] = r
	delete(m.removed, r.key)
}

func (m *mirror) remove(k hitKey) {
	if r := m.live[k]; r != nil {
		delete(m.byName, k.kind+"/"+r.name)
	}
	delete(m.live, k)
	m.removed[k] = true
}

// peRecordOf builds a mirror record from a PE as the registry returned
// it. The embeddings are the benchmark's own, computed from the stored
// description and code.
func peRecordOf(pe core.PERecord, withCode bool) (*record, error) {
	r := &record{
		key:      hitKey{"pe", pe.PEID},
		name:     pe.PEName,
		normText: []string{normText(pe.PEName), normText(pe.Description)},
		descVec:  search.EmbedDescription(pe.Description),
	}
	env, err := codec.Decode(pe.PECode)
	if err != nil {
		return nil, fmt.Errorf("PE %s: undecodable code: %w", pe.PEName, err)
	}
	r.source = env.Source
	if withCode {
		r.codeVec = search.EmbedCode(env.Source)
	}
	return r, nil
}

func workflowRecordOf(wf core.WorkflowRecord) *record {
	text := wf.Description
	if text == "" {
		text = wf.WorkflowName
	}
	return &record{
		key:      hitKey{"workflow", wf.WorkflowID},
		name:     wf.EntryPoint,
		normText: []string{normText(wf.EntryPoint), normText(wf.WorkflowName), normText(wf.Description)},
		descVec:  search.EmbedDescription(text),
	}
}

// docs lists the exact-scan candidates: description vectors of PEs and
// workflows, or code vectors of PEs.
func (m *mirror) docs(code bool) []oracleDoc {
	out := make([]oracleDoc, 0, len(m.live))
	for _, r := range m.live {
		switch {
		case code && r.key.kind == "pe":
			out = append(out, oracleDoc{r.key, r.codeVec})
		case !code:
			out = append(out, oracleDoc{r.key, r.descVec})
		}
	}
	return out
}

// textMatches counts live records the text oracle matches.
func (m *mirror) textMatches(q string) int {
	nq := normText(q)
	n := 0
	for _, r := range m.live {
		if anyMatch(nq, r.normText) {
			n++
		}
	}
	return n
}

// anyMatch reports whether the normalized query matches any of the
// normalized fields.
func anyMatch(nq string, fields []string) bool {
	for _, f := range fields {
		if matchNormalized(nq, f) {
			return true
		}
	}
	return false
}

// spec sizes one workload.
type spec struct {
	name      string
	descPEs   int // PEs with written descriptions (describe-style corpus)
	workflows int // two-stage workflows with descriptions
	codePEs   int // PEs registered from source alone, so summarized
	codeQuery bool
	// Main-phase round: the workload's own mix ...
	block     int // queries per mode
	textBlock int // text queries
	runBlock  int // runs per mapping
	// ... plus a fixed few requests of the kinds that mix leaves out, so
	// that every end-to-end metric is sampled across the whole phase.
	roundQueries int // description queries, each sent in all three modes
	roundText    int // text queries
	roundRuns    int // runs, the mapping rotating from round to round
	// sideWrites is the number of register+remove pairs sent after the
	// main phase by workloads whose main phase does not write.
	sideWrites int
	restarts   int // restarts per run; restart_s is their median
	maxRounds  int // caps the main phase's rounds (0 = no cap)
}

// bench is one benchmark run.
type bench struct {
	spec    spec
	seed    int64
	seconds time.Duration
	dir     string
	rng     *rand.Rand

	dep    *deployment
	userID int
	mirror *mirror
	eng    *engine.Engine // the benchmark's own engine for traced replays
	tr     *tracer        // nil when untraced
	stage  string
	// primeCode is the registered prime-digit workflow's code envelope.
	primeCode string
	// lastReply is when the latest search reply arrived.
	lastReply time.Time
	spanDir   string // where a traced run writes its spans
	lastMark  time.Time

	// query pools, consumed in order so no query repeats
	descQ   []labelledQuery
	textQ   []string
	nextPE  int // index of the next generated code PE
	round   int // main-phase rounds sent so far
	targets []*record
	queried []*record // code PEs already targeted: removal victims

	samples  map[string][]time.Duration // "stage/kind"
	runRecs  map[string]int             // producer records per stage
	runTime  map[string]time.Duration   // run latency per stage
	overhead map[string][]time.Duration // traced: HTTP minus direct call

	recallSum, hitSum float64
	recallN, hitN     int

	attempted, failed, mismatches int
	failures                      []string

	setupTimes   []time.Duration
	restartTimes []time.Duration
	heapMB       float64
	saveBytes    int64
}

func newBench(sp spec, seed int64, seconds time.Duration, dir string) *bench {
	return &bench{
		spec: sp, seed: seed, seconds: seconds, dir: dir,
		rng:      rand.New(rand.NewSource(seed)),
		samples:  map[string][]time.Duration{},
		runRecs:  map[string]int{},
		runTime:  map[string]time.Duration{},
		overhead: map[string][]time.Duration{},
	}
}

// sample records one latency under the current stage.
func (b *bench) sample(kind string, d time.Duration) {
	key := b.stage + "/" + kind
	b.samples[key] = append(b.samples[key], d)
}

// fail counts an operation that errored.
func (b *bench) fail(op string, err error) {
	b.failed++
	b.note(fmt.Sprintf("%s: %v", op, err))
}

// mismatch counts an operation whose answer an oracle rejected.
func (b *bench) mismatch(op, why string) {
	b.failed++
	b.mismatches++
	b.note(op + ": " + why)
}

func (b *bench) note(msg string) {
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
}

// ---- setup ----

// corpus is everything a setup registers, drawn once per run so every
// setup of the run registers the same records.
type corpus struct {
	desc *describeCorpus
	code []codePE
}

func (b *bench) genCorpus() *corpus {
	c := &corpus{desc: genDescribeCorpus(b.rng, b.spec.descPEs, b.spec.workflows)}
	for i := 0; i < b.spec.codePEs; i++ {
		pe := genCodePE(b.rng, b.nextPE)
		pe.other = i%otherShare == otherShare-1
		c.code = append(c.code, pe)
		b.nextPE++
	}
	return c
}

// regTask is one registration of the setup.
type regTask struct {
	other    bool
	peSource string // PE registration when set
	peName   string
	desc     string
	wf       *descWorkflow
}

// setup starts a fresh server, registers the corpus over HTTP and forces
// one full index retrain, returning the time it took.
func (b *bench) setup(c *corpus, path string) (*deployment, time.Duration, error) {
	if err := removeSnapshot(path); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	srv, url, err := startServer(path)
	if err != nil {
		return nil, 0, err
	}
	dep := &deployment{srv: srv, url: url, path: path}
	for _, u := range []string{benchUser, otherUser} {
		if err := newClient(url).Register(u, password); err != nil {
			srv.Close()
			return nil, 0, fmt.Errorf("registering user %s: %w", u, err)
		}
	}
	var tasks []regTask
	for _, pe := range c.desc.pes {
		tasks = append(tasks, regTask{other: pe.other, peSource: pe.source, peName: pe.name, desc: pe.desc.text()})
	}
	for i := range c.desc.workflows {
		wf := &c.desc.workflows[i]
		tasks = append(tasks, regTask{other: wf.other, wf: wf})
	}
	for _, pe := range c.code {
		tasks = append(tasks, regTask{other: pe.other, peSource: pe.source, peName: pe.name})
	}
	prime := &descWorkflow{name: primeWorkflowName, source: primeDigitsWorkflow}
	tasks = append(tasks, regTask{wf: prime})

	lat, err := registerAll(url, tasks, setupClients)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	srv.Registry().RetrainIndexes()
	elapsed := time.Since(start)
	b.samples[stSetup+"/"+kRegister] = append(b.samples[stSetup+"/"+kRegister], lat...)
	dep.cli, err = login(url, benchUser)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	return dep, elapsed, nil
}

// registerAll registers the tasks from several clients at once, task i
// going to worker i mod workers, and returns the latency of every
// single-PE registration.
func registerAll(url string, tasks []regTask, workers int) ([]time.Duration, error) {
	var (
		mu    sync.Mutex
		lat   []time.Duration
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine, err := login(url, benchUser)
			theirs, err2 := login(url, otherUser)
			if err == nil {
				err = err2
			}
			var local []time.Duration
			for i := w; i < len(tasks) && err == nil; i += workers {
				t := tasks[i]
				cli := mine
				if t.other {
					cli = theirs
				}
				if t.wf != nil {
					desc := t.wf.desc.text()
					if t.wf.name == primeWorkflowName {
						desc = primeWorkflowDesc
					}
					_, err = cli.RegisterWorkflow(t.wf.source, t.wf.name, desc)
					continue
				}
				start := time.Now()
				_, err = cli.RegisterPE(t.peSource, t.peName, t.desc)
				local = append(local, time.Since(start))
			}
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, local...)
			if err != nil && first == nil {
				first = fmt.Errorf("setup registration: %w", err)
			}
		}(w)
	}
	wg.Wait()
	return lat, first
}

const primeWorkflowDesc = "counts how often each decimal digit occurs in the prime numbers up to a limit"

// removeSnapshot deletes a registry snapshot and its sidecar files.
func removeSnapshot(path string) error {
	matches, err := filepath.Glob(path + "*")
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return fmt.Errorf("removing %s: %w", m, err)
		}
	}
	return nil
}

// snapshotBytes sums the sizes of a snapshot and its sidecar files.
func snapshotBytes(path string) (int64, error) {
	matches, err := filepath.Glob(path + "*")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// loadMirror builds the benchmark's account of the querying user's
// records from the registry listing, after checking that the listing
// names exactly the records that user registered: nothing missing and
// nothing of the other user's.
func (b *bench) loadMirror(c *corpus) error {
	listing, err := b.dep.cli.GetRegistry()
	if err != nil {
		return fmt.Errorf("listing registry: %w", err)
	}
	want := map[string]bool{}
	for _, pe := range c.desc.pes {
		if !pe.other {
			want["pe/"+pe.name] = true
		}
	}
	for _, wf := range c.desc.workflows {
		if !wf.other {
			want["workflow/"+wf.name] = true
			want["pe/"+wf.name+"Source"] = true
			want["pe/"+wf.name+"Stage"] = true
		}
	}
	for _, pe := range c.code {
		if !pe.other {
			want["pe/"+pe.name] = true
		}
	}
	want["workflow/"+primeWorkflowName] = true
	for _, n := range []string{"NumberSource", "TrialDivision", "DigitFanOut", "DigitCount"} {
		want["pe/"+n] = true
	}
	m := newMirror()
	for _, pe := range listing.PEs {
		r, err := peRecordOf(pe, b.spec.codeQuery)
		if err != nil {
			return err
		}
		m.add(r)
	}
	for _, wf := range listing.Workflows {
		m.add(workflowRecordOf(wf))
		if wf.EntryPoint == primeWorkflowName {
			b.primeCode = wf.WorkflowCode
		}
	}
	var extra, missing []string
	for name := range m.byName {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	for name := range want {
		if m.byName[name] == nil {
			missing = append(missing, name)
		}
	}
	if len(extra)+len(missing) > 0 {
		sort.Strings(extra)
		sort.Strings(missing)
		return fmt.Errorf("registry listing disagrees with what was registered: %d unexpected (%.5v), %d missing (%.5v)",
			len(extra), extra, len(missing), missing)
	}
	b.mirror = m
	u, err := b.dep.srv.Registry().UserByName(benchUser)
	if err != nil {
		return err
	}
	b.userID = u.UserID
	return nil
}
