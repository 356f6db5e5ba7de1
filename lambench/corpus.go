package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Corpus generation. Everything here is a pure function of a seeded
// *rand.Rand: the same seed yields byte-identical PEs, workflows and
// queries, and the program under test receives only these generated
// inputs.

// Description vocabulary. A description takes one phrase from each of the
// four slots, so the corpus draws from 30×40×30×20 = 720,000 distinct
// descriptions; a query keeps three of the four slots of its target.
var (
	descVerbs = []string{
		"filters", "aggregates", "normalizes", "tokenizes", "deduplicates",
		"joins", "splits", "sorts", "ranks", "samples", "buffers", "validates",
		"parses", "encodes", "decodes", "compresses", "windows", "smooths",
		"interpolates", "resamples", "clusters", "classifies", "geocodes",
		"hashes", "merges", "routes", "throttles", "annotates", "scores", "counts",
	}
	descObjects = []string{
		"sensor readings", "log lines", "stock ticks", "tweets", "star coordinates",
		"galaxy spectra", "weather records", "network packets", "sales orders",
		"gene sequences", "flight tracks", "meter samples", "click events",
		"invoice rows", "chat messages", "seismic traces", "image tiles",
		"protein structures", "traffic counts", "survey answers", "email headers",
		"audio frames", "payment records", "satellite passes", "patient vitals",
		"river gauges", "shipping manifests", "crop yields", "power loads",
		"forum posts", "citation lists", "telescope exposures", "bus arrivals",
		"air quality values", "tide levels", "wind gusts", "ticket sales",
		"search queries", "ledger entries", "lab results",
	}
	descQualifiers = []string{
		"by timestamp", "over a sliding window", "into fixed buckets",
		"using a bloom filter", "per customer", "by region", "with a moving median",
		"against a reference catalog", "in parallel batches", "by priority",
		"with exponential decay", "across partitions", "using a hash ring",
		"by severity", "with outlier rejection", "per hour", "by magnitude",
		"with a lookup table", "against a schema", "by session",
		"using reservoir sampling", "with linear regression", "by frequency band",
		"per station", "with checksums", "by language", "across shards",
		"with a threshold", "by account", "in sorted order",
	}
	descOutputs = []string{
		"and emits a summary record", "and writes alerts", "and forwards the result",
		"and publishes counts", "and stores a checkpoint", "and reports anomalies",
		"and returns a histogram", "and flags duplicates", "and prints totals",
		"and sends notifications", "and keeps running state", "and yields batches",
		"and logs rejects", "and builds an index", "and updates a dashboard",
		"and caches the output", "and tags each item", "and emits pairs",
		"and computes statistics", "and drops empty values",
	}
	queryLeads = []string{
		"find a PE that", "which component", "I need something that",
		"search for code that", "a processing element that", "look up a step that",
		"is there a PE which", "show me a stage that",
	}
)

// descParts is one description broken into its four slots.
type descParts [4]string

func (d descParts) text() string { return strings.Join(d[:], " ") }

func drawDesc(rng *rand.Rand) descParts {
	return descParts{
		descVerbs[rng.Intn(len(descVerbs))],
		descObjects[rng.Intn(len(descObjects))],
		descQualifiers[rng.Intn(len(descQualifiers))],
		descOutputs[rng.Intn(len(descOutputs))],
	}
}

// camel turns "sensor readings" into "SensorReadings".
func camel(words ...string) string {
	var sb strings.Builder
	for _, w := range words {
		for _, f := range strings.Fields(w) {
			sb.WriteString(strings.ToUpper(f[:1]) + f[1:])
		}
	}
	return sb.String()
}

// descPE is a describe-workload PE: a class with an explicit description.
type descPE struct {
	name   string
	desc   descParts
	source string
	other  bool // registered by the second user: never visible to queries
}

// descWorkflow is a describe-workload workflow.
type descWorkflow struct {
	name   string
	desc   descParts
	source string
	other  bool
}

// describeCorpus is the describe workload's registry content.
type describeCorpus struct {
	pes       []descPE
	workflows []descWorkflow
}

// otherShare is the fraction of records the second user owns; the
// visibility check requires that none of them ever reaches the querying
// user.
const otherShare = 20 // one record in otherShare

// genDescribeCorpus draws nPE PEs and nWF workflows with distinct
// descriptions. Each workflow defines two PE classes of its own, which
// RegisterWorkflow registers too, so the registry ends up holding
// nPE + 2·nWF PEs.
func genDescribeCorpus(rng *rand.Rand, nPE, nWF int) *describeCorpus {
	seen := map[string]bool{}
	unique := func() descParts {
		for {
			d := drawDesc(rng)
			if t := d.text(); !seen[t] {
				seen[t] = true
				return d
			}
		}
	}
	c := &describeCorpus{}
	for i := 0; i < nPE; i++ {
		d := unique()
		name := fmt.Sprintf("%s%s%05d", camel(d[0]), camel(d[1]), i)
		c.pes = append(c.pes, descPE{
			name:   name,
			desc:   d,
			source: simplePESource(rng, name),
			other:  i%otherShare == otherShare-1,
		})
	}
	for i := 0; i < nWF; i++ {
		d := unique()
		name := fmt.Sprintf("%s%sFlow%04d", camel(d[0]), camel(d[1]), i)
		c.workflows = append(c.workflows, descWorkflow{
			name:   name,
			desc:   d,
			source: pipelineWorkflowSource(rng, name),
			other:  i%otherShare == otherShare-1,
		})
	}
	return c
}

// simplePESource is a small IterativePE whose body varies with the rng.
func simplePESource(rng *rand.Rand, name string) string {
	return fmt.Sprintf(`class %s(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
        self.limit = %d
    def _process(self, value):
        if value > self.limit:
            return value - %d
`, name, 10+rng.Intn(990), 1+rng.Intn(9))
}

// pipelineWorkflowSource is a two-stage workflow: a producer and a
// transformer, both defined inline.
func pipelineWorkflowSource(rng *rand.Rand, name string) string {
	return fmt.Sprintf(`import random

class %[1]sSource(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
    def _process(self):
        return random.randint(1, %[2]d)

class %[1]sStage(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        return num * %[3]d

src = %[1]sSource()
stage = %[1]sStage()
graph = WorkflowGraph()
graph.connect(src, 'output', stage, 'input')
`, name, 100+rng.Intn(900), 2+rng.Intn(7))
}

// labelledQuery is a natural-language query whose intended answer is
// known: the record whose description it was drawn from.
type labelledQuery struct {
	text   string
	kind   string // "pe" or "workflow"
	target string // record name
}

// genDescQueries draws n distinct description queries over the visible
// records. Each keeps three of its target's four description slots behind
// a random lead phrase.
func genDescQueries(rng *rand.Rand, c *describeCorpus, n int) []labelledQuery {
	seen := map[string]bool{}
	out := make([]labelledQuery, 0, n)
	for len(out) < n {
		var d descParts
		var kind, name string
		// Workflows are drawn in proportion to their share of the corpus.
		i := rng.Intn(len(c.pes) + len(c.workflows))
		if i < len(c.pes) {
			if c.pes[i].other {
				continue
			}
			d, kind, name = c.pes[i].desc, "pe", c.pes[i].name
		} else {
			wf := c.workflows[i-len(c.pes)]
			if wf.other {
				continue
			}
			d, kind, name = wf.desc, "workflow", wf.name
		}
		drop := rng.Intn(4)
		words := []string{queryLeads[rng.Intn(len(queryLeads))]}
		for s := 0; s < 4; s++ {
			if s != drop {
				words = append(words, d[s])
			}
		}
		text := strings.Join(words, " ")
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, labelledQuery{text: text, kind: kind, target: name})
	}
	return out
}

// genTextQueries draws up to n distinct plain-text queries for a
// describe-style corpus of corpusSize PEs. A large corpus gets an object
// phrase plus a qualifier word, selective enough that most queries match
// a handful of records; a small one gets a single verb or object phrase.
func genTextQueries(rng *rand.Rand, corpusSize, n int) []string {
	seen := map[string]bool{}
	var all []string
	addQ := func(q string) {
		if !seen[q] {
			seen[q] = true
			all = append(all, q)
		}
	}
	if corpusSize >= 2000 {
		for _, obj := range descObjects {
			for _, qual := range descQualifiers {
				f := strings.Fields(qual)
				addQ(obj + " " + f[len(f)-1])
			}
		}
	} else {
		for _, w := range append(append([]string(nil), descVerbs...), descObjects...) {
			addQ(w)
		}
		for _, v := range descVerbs {
			for _, obj := range descObjects {
				addQ(v + " " + obj)
			}
		}
	}
	return shuffleTake(rng, all, n)
}

// genCodeTextQueries draws text queries for the code corpus: a verb and a
// noun of the PE class names ("parse orders" finds ParseOrders00042), alone
// or with the leading digits of the class number ("parse orders 00" finds
// the ones numbered below 1000).
func genCodeTextQueries(rng *rand.Rand) []string {
	var all []string
	for _, v := range codeVerbs {
		for _, n := range codeNouns {
			q := strings.ToLower(v + " " + n)
			all = append(all, q)
			for d := 0; d < 6; d++ {
				all = append(all, fmt.Sprintf("%s 0%d", q, d))
			}
		}
	}
	return shuffleTake(rng, all, len(all))
}

func shuffleTake(rng *rand.Rand, xs []string, n int) []string {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs[:min(n, len(xs))]
}

// Code-completion corpus. Each PE is a Python class built from one of a
// few body templates with randomized identifiers and constants; a query
// is a prefix of a live PE's source.

var (
	codeVerbs   = []string{"Parse", "Clean", "Score", "Bucket", "Merge", "Trim", "Rank", "Scale", "Split", "Tally", "Guard", "Shift"}
	codeNouns   = []string{"Orders", "Readings", "Tokens", "Frames", "Events", "Rows", "Tracks", "Spectra", "Votes", "Prices", "Quotes", "Samples", "Packets", "Visits"}
	codeFields  = []string{"value", "reading", "record", "item", "sample", "row", "entry", "point"}
	codeHelpers = []string{"total", "acc", "result", "score", "level", "state", "bucket", "tally"}
)

// codePE is a complete-workload PE.
type codePE struct {
	name   string
	source string
	other  bool // registered by the second user
}

// codeBodies are the _process templates. %[1]s is the input name,
// %[2]s a helper variable, %[3]d and %[4]d constants.
var codeBodies = []string{
	`        %[2]s = 0
        for part in str(%[1]s).split(","):
            %[2]s = %[2]s + len(part) * %[3]d
        if %[2]s > %[4]d:
            return %[2]s
`,
	`        %[2]s = [x for x in range(%[3]d) if x %% 3 == 0]
        self.seen.append(%[1]s)
        if len(self.seen) > %[4]d:
            self.seen = self.seen[1:]
        return sum(%[2]s) + len(self.seen)
`,
	`        %[2]s = max(%[1]s, %[3]d)
        %[2]s = min(%[2]s, %[4]d)
        return %[2]s * 2
`,
	`        %[2]s = str(%[1]s).lower().strip()
        if len(%[2]s) > %[3]d:
            return %[2]s[:%[4]d]
        return %[2]s.upper()
`,
	`        %[2]s = %[1]s %% %[3]d
        self.seen.append(%[2]s)
        if %[2]s == 0:
            return sorted(self.seen)[-1] + %[4]d
`,
	`        %[2]s = 1
        while %[2]s * %[3]d < %[1]s:
            %[2]s = %[2]s + 1
        return %[2]s - %[4]d
`,
}

// codePESource renders PE i with the rng's draws; names carry i so every
// class is unique.
func genCodePE(rng *rand.Rand, i int) codePE {
	name := fmt.Sprintf("%s%s%05d", codeVerbs[rng.Intn(len(codeVerbs))], codeNouns[rng.Intn(len(codeNouns))], i)
	field := codeFields[rng.Intn(len(codeFields))]
	helper := codeHelpers[rng.Intn(len(codeHelpers))]
	body := fmt.Sprintf(codeBodies[rng.Intn(len(codeBodies))], field, helper, 2+rng.Intn(97), 100+rng.Intn(900))
	src := fmt.Sprintf(`class %s(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
        self.seen = []
    def _process(self, %s):
%s`, name, field, body)
	return codePE{name: name, source: src}
}

// codePrefix cuts a source after its first keep lines — the completion
// query a user types while the rest of the class is still missing.
func codePrefix(src string, keep int) string {
	lines := strings.SplitAfter(src, "\n")
	if keep > len(lines) {
		keep = len(lines)
	}
	return strings.TrimRight(strings.Join(lines[:keep], ""), "\n")
}

// Execution workflow: a compute-bound prime filter, a per-digit fan-out
// and a group-by count. Its output is checked against a sieve.
const primeDigitsWorkflow = `from collections import defaultdict

class NumberSource(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
        self.n = 0
    def _process(self):
        self.n += 1
        return self.n

class TrialDivision(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if num < 2:
            return None
        d = 2
        while d * d <= num:
            if num % d == 0:
                return None
            d += 1
        return num

class DigitFanOut(GenericPE):
    def __init__(self):
        GenericPE.__init__(self)
        self._add_input("input")
        self._add_output("output")
    def _process(self, inputs):
        for ch in str(inputs['input']):
            self.write("output", (ch, 1))

class DigitCount(GenericPE):
    def __init__(self):
        GenericPE.__init__(self)
        self._add_input("input", grouping=[0])
        self._add_output("output")
        self.count = defaultdict(int)
    def _process(self, inputs):
        digit, n = inputs['input']
        self.count[digit] += n
    def _postprocess(self):
        for d in self.count.keys():
            self.write("output", (d, self.count[d]))

src = NumberSource()
primes = TrialDivision()
fan = DigitFanOut()
count = DigitCount()
graph = WorkflowGraph()
graph.connect(src, 'output', primes, 'input')
graph.connect(primes, 'output', fan, 'input')
graph.connect(fan, 'output', count, 'input')
`

// primeWorkflowName is the registered entry point of primeDigitsWorkflow.
const primeWorkflowName = "PrimeDigitCount"
