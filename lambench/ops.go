package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"laminar"
	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/dataflow"
	"laminar/internal/engine"
	"laminar/internal/pype"
	"laminar/internal/registry"
	"laminar/internal/search"
	"laminar/internal/summarize"
)

// The operations a workload sends. Each is one request from the closed-
// loop client, timed end to end, then checked against the benchmark's own
// computation. With a tracer set, the request is split into spans around
// each layer call the client makes, and afterwards the same work is
// replayed directly on the layers below the HTTP server (registry, search,
// engine, pype, dataflow) inside spans of their own.

// query is one semantic or code-completion search.
type query struct {
	text   string
	code   bool   // code completion: QueryCode over PEs only
	target string // "kind/name" of the record the query was drawn from
}

func (b *bench) searchShape(q query) (core.SearchType, core.QueryType) {
	if q.code {
		return core.SearchPEs, core.QueryCode
	}
	return core.SearchBoth, core.QuerySemantic
}

// search sends q in one retrieval mode and checks the answer.
func (b *bench) search(q query, mode string) ([]hitKey, bool) {
	b.attempted++
	st, qt := b.searchShape(q)
	b.tr.request()
	start := time.Now()
	root := b.tr.begin("request."+mode, 0)
	var emb []float32
	if q.code {
		b.tr.do("embed.code", root, func() { emb = search.EmbedCode(q.text) })
	} else {
		b.tr.do("embed.desc", root, func() { emb = search.EmbedDescription(q.text) })
	}
	h := b.tr.begin("server.http", root)
	httpStart := time.Now()
	resp, err := b.dep.cli.Web().Search(benchUser, core.SearchRequest{
		Search: q.text, SearchType: st, QueryType: qt, QueryEmbedding: emb, Limit: searchLimit, Mode: mode,
	})
	b.lastReply = time.Now()
	httpDur := b.lastReply.Sub(httpStart)
	b.tr.end(h)
	b.tr.end(root)
	lat := time.Since(start)
	if err != nil {
		b.fail(mode+" search", err)
		return nil, false
	}
	b.sample(mode, lat)
	if b.tr != nil {
		b.replaySearch(q, mode, emb, httpDur)
	}
	return keysOf(resp.Hits), b.checkSearch(q, mode, emb, resp.Hits)
}

// checkSearch verifies a semantic or code answer: every hit is a live
// record the user can see, the list is as long as the corpus allows, code
// queries return PEs only; it also accumulates hit@10 and, in ann mode,
// recall@10 against an exact scan.
func (b *bench) checkSearch(q query, mode string, emb []float32, hits []core.SearchHit) bool {
	op := mode + " search " + fmt.Sprintf("%.40q", q.text)
	docs := b.mirror.docs(q.code)
	for _, h := range hits {
		k := hitKey{h.Kind, h.ID}
		switch {
		case b.mirror.removed[k]:
			b.mismatch(op, fmt.Sprintf("returned removed %s %d", h.Kind, h.ID))
			return false
		case b.mirror.live[k] == nil:
			b.mismatch(op, fmt.Sprintf("returned %s %d, which the user cannot see", h.Kind, h.ID))
			return false
		case q.code && h.Kind != "pe":
			b.mismatch(op, "code search returned a "+h.Kind)
			return false
		}
	}
	if want := min(searchLimit, len(docs)); len(hits) != want {
		b.mismatch(op, fmt.Sprintf("%d hits, want %d", len(hits), want))
		return false
	}
	if b.stage == stProbe || b.stage == stWarmup {
		return true
	}
	if r := b.mirror.byName[q.target]; r != nil {
		b.hitN++
		for _, h := range hits {
			if h.Kind == r.key.kind && h.ID == r.key.id {
				b.hitSum++
				break
			}
		}
	}
	if mode == kANN {
		b.recallSum += overlap(keysOf(hits), exactTopK(emb, docs, searchLimit))
		b.recallN++
	}
	return true
}

// replaySearch repeats a search directly on the registry, then rebuilds
// the hybrid pipeline from its public pieces — ANN leg, lexical leg, RRF
// fusion and rerank — each in its own span.
func (b *bench) replaySearch(q query, mode string, emb []float32, httpDur time.Duration) {
	store := b.dep.srv.Registry()
	st, _ := b.searchShape(q)
	ann := func(limit int) []core.SearchHit {
		if q.code {
			return store.CompletionSearch(b.userID, emb, limit)
		}
		return store.SemanticSearchBoth(b.userID, emb, limit)
	}
	start := time.Now()
	if mode == kANN {
		b.tr.do("registry.ann", 0, func() { ann(searchLimit) })
		b.overhead[mode] = append(b.overhead[mode], httpDur-time.Since(start))
		return
	}
	hq := registry.HybridQuery{Text: q.text, Embedding: emb, Code: q.code, Type: st, Limit: searchLimit, Rerank: mode == kReranked}
	b.tr.do("registry."+mode, 0, func() { store.HybridSearch(b.userID, hq) })
	b.overhead[mode] = append(b.overhead[mode], httpDur-time.Since(start))

	pool := searchLimit * 4 // the registry's hybrid overfetch
	root := b.tr.begin("pipeline."+mode, 0)
	var annLeg, lexLeg, fused []core.SearchHit
	b.tr.do("index.ann_leg", root, func() { annLeg = ann(pool) })
	lexOnly := registry.HybridQuery{Text: q.text, Code: q.code, Type: st, Limit: searchLimit}
	b.tr.do("lexical.search", root, func() { store.HybridSearch(b.userID, lexOnly) })
	b.tr.end(root)
	// The lexical leg's own list, for the fusion replay: a lexical-only
	// query at limit = pool returns the leg's top pool in BM25 order.
	lexOnly.Limit = pool
	lexLeg = store.HybridSearch(b.userID, lexOnly)
	if mode == kHybrid {
		b.tr.do("search.rrf", 0, func() { search.FuseRRF(searchLimit, annLeg, lexLeg) })
		return
	}
	b.tr.do("search.rrf", 0, func() { fused = search.FuseRRF(pool, annLeg, lexLeg) })
	b.tr.do("search.rerank", 0, func() { search.Rerank(q.text, fused, searchLimit) })
}

// textSearch sends a plain text query and checks that every hit matches
// it and that the hit count equals the oracle's.
func (b *bench) textSearch(q string) {
	b.attempted++
	b.tr.request()
	start := time.Now()
	root := b.tr.begin("request."+kText, 0)
	h := b.tr.begin("server.http", root)
	resp, err := b.dep.cli.Web().Search(benchUser, core.SearchRequest{
		Search: q, SearchType: core.SearchBoth, QueryType: core.QueryText, Limit: textLimit,
	})
	httpDur := time.Since(start)
	b.tr.end(h)
	b.tr.end(root)
	lat := time.Since(start)
	if err != nil {
		b.fail("text search", err)
		return
	}
	b.sample(kText, lat)
	if b.tr != nil {
		store := b.dep.srv.Registry()
		t := time.Now()
		b.tr.do("registry.text", 0, func() {
			pes := store.PEsForUser(b.userID)
			wfs := store.WorkflowsForUser(b.userID)
			search.Text(q, core.SearchBoth, pes, wfs, textLimit)
		})
		b.overhead[kText] = append(b.overhead[kText], httpDur-time.Since(t))
	}
	op := fmt.Sprintf("text search %q", q)
	nq := normText(q)
	for _, hit := range resp.Hits {
		r := b.mirror.live[hitKey{hit.Kind, hit.ID}]
		if r == nil {
			b.mismatch(op, fmt.Sprintf("returned %s %d, which is not live or not the user's", hit.Kind, hit.ID))
			return
		}
		if !anyMatch(nq, r.normText) {
			b.mismatch(op, fmt.Sprintf("returned %s %q, which does not contain the query", hit.Kind, r.name))
			return
		}
	}
	if want := min(textLimit, b.mirror.textMatches(q)); len(resp.Hits) != want {
		b.mismatch(op, fmt.Sprintf("%d hits, want %d", len(resp.Hits), want))
	}
}

// register adds one PE from class source alone, so the client summarizes
// it, and returns its mirror record.
func (b *bench) register(pe codePE) *record {
	b.attempted++
	b.tr.request()
	start := time.Now()
	var rec core.PERecord
	var err error
	var req core.AddPERequest
	var peSource string
	var httpDur time.Duration
	if b.tr == nil {
		rec, err = b.dep.cli.RegisterPE(pe.source, "", "")
	} else {
		// Client.RegisterPE step by step, each client layer in a span.
		root := b.tr.begin("request."+kRegister, 0)
		b.tr.do("client.package", root, func() { req, peSource, err = packagePE(pe.source) })
		if err == nil {
			b.tr.do("summarize.pe", root, func() { req.Description, err = summarize.SummarizePE(peSource, req.PEName) })
		}
		if err == nil {
			req.AutoSummarized = true
			b.tr.do("embed.code", root, func() { req.CodeEmbedding = search.EmbedCode(peSource) })
			b.tr.do("embed.desc", root, func() { req.DescEmbedding = search.EmbedDescription(req.Description) })
			h := b.tr.begin("server.http", root)
			t := time.Now()
			rec, err = b.dep.cli.Web().AddPE(benchUser, req)
			httpDur = time.Since(t)
			b.tr.end(h)
		}
		b.tr.end(root)
	}
	lat := time.Since(start)
	if err != nil {
		b.fail("register "+pe.name, err)
		return nil
	}
	b.sample(kRegister, lat)
	if b.tr != nil {
		b.replayWrite(kRegister, req, httpDur)
	}
	op := "register " + pe.name
	if rec.PEName != pe.name || !rec.AutoSummarized || strings.TrimSpace(rec.Description) == "" {
		b.mismatch(op, fmt.Sprintf("stored as %q (summarized %v, description %q)", rec.PEName, rec.AutoSummarized, rec.Description))
		return nil
	}
	r, err := peRecordOf(rec, b.spec.codeQuery)
	if err != nil {
		b.mismatch(op, err.Error())
		return nil
	}
	if r.source != strings.TrimSpace(pe.source) && r.source != pe.source {
		b.mismatch(op, "stored code differs from the registered source")
		return nil
	}
	b.mirror.add(r)
	return r
}

// packagePE is the client's packaging of one PE class: class extraction,
// import detection and the code envelope. It also returns the class
// source the client summarizes and embeds.
func packagePE(source string) (core.AddPERequest, string, error) {
	names, err := pype.PEClassNames(source)
	if err != nil {
		return core.AddPERequest{}, "", err
	}
	if len(names) == 0 {
		return core.AddPERequest{}, "", fmt.Errorf("source defines no PE class")
	}
	peSource, err := pype.ClassSource(source, names[0])
	if err != nil {
		return core.AddPERequest{}, "", err
	}
	imports, err := engine.DetectImports(peSource)
	if err != nil {
		return core.AddPERequest{}, "", err
	}
	encoded, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: names[0], Source: peSource, Imports: imports})
	if err != nil {
		return core.AddPERequest{}, "", err
	}
	return core.AddPERequest{PEName: names[0], PECode: encoded, PEImports: imports}, peSource, nil
}

// replayWrite times the registry's own AddPE or RemovePE on a shadow copy
// of the PE, which it adds and removes again, so the mirror is untouched.
func (b *bench) replayWrite(kind string, req core.AddPERequest, httpDur time.Duration) {
	store := b.dep.srv.Registry()
	req.PEName += "Shadow"
	var shadow *core.PERecord
	var err error
	t := time.Now()
	if kind == kRegister {
		b.tr.do("registry.add", 0, func() { shadow, err = store.AddPE(b.userID, req) })
		b.overhead[kind] = append(b.overhead[kind], httpDur-time.Since(t))
	} else {
		shadow, err = store.AddPE(b.userID, req)
	}
	if err != nil {
		b.note("shadow add: " + err.Error())
		return
	}
	t = time.Now()
	if kind == kRemove {
		b.tr.do("registry.remove", 0, func() { err = store.RemovePE(b.userID, shadow.PEID) })
		b.overhead[kind] = append(b.overhead[kind], httpDur-time.Since(t))
	} else {
		err = store.RemovePE(b.userID, shadow.PEID)
	}
	if err != nil {
		b.note("shadow remove: " + err.Error())
	}
}

// remove deletes a live PE by id.
func (b *bench) remove(r *record) {
	b.attempted++
	b.tr.request()
	start := time.Now()
	root := b.tr.begin("request."+kRemove, 0)
	h := b.tr.begin("server.http", root)
	err := b.dep.cli.RemovePE(r.key.id)
	httpDur := time.Since(start)
	b.tr.end(h)
	b.tr.end(root)
	lat := time.Since(start)
	if err != nil {
		b.fail("remove "+r.name, err)
		return
	}
	b.sample(kRemove, lat)
	b.mirror.remove(r.key)
	if b.tr != nil {
		req, _, err := packagePE(r.source)
		if err != nil {
			b.note("shadow package: " + err.Error())
			return
		}
		// The shadow carries both embeddings, so removing it costs the
		// index deletes a real removal costs.
		req.Description = r.name
		req.DescEmbedding = r.descVec
		req.CodeEmbedding = search.EmbedCode(r.source)
		b.replayWrite(kRemove, req, httpDur)
	}
}

// run executes the registered prime-digit workflow on n inputs under the
// mapping of kind, and checks its output against a sieve.
func (b *bench) run(kind string, n int) {
	b.attempted++
	b.tr.request()
	mapping := mappingOf[kind]
	args := map[string]any{"num": runProcs}
	start := time.Now()
	var resp core.ExecutionResponse
	var err error
	var httpDur time.Duration
	if b.tr == nil {
		resp, err = b.dep.cli.Run(primeWorkflowName, laminar.RunOptions{Input: n, Process: mapping, Args: args})
	} else {
		root := b.tr.begin("request."+kind, 0)
		h := b.tr.begin("server.http", root)
		resp, err = b.dep.cli.Web().Run(benchUser, core.ExecutionRequest{
			WorkflowName: primeWorkflowName, Input: n, Process: mapping, Args: args,
		})
		httpDur = time.Since(start)
		b.tr.end(h)
		b.tr.end(root)
	}
	lat := time.Since(start)
	if err != nil {
		b.fail(mapping+" run", err)
		return
	}
	b.sample(kind, lat)
	b.runRecs[b.stage] += n
	b.runTime[b.stage] += lat
	if b.tr != nil {
		b.replayRun(kind, n, httpDur)
	}
	got, ok := digitCountsOf(resp.Outputs["DigitCount.output"])
	if !ok || !sameCounts(got, primeDigitCounts(n)) {
		b.mismatch(fmt.Sprintf("%s run n=%d", mapping, n), fmt.Sprintf("digit counts %v, want %v", got, primeDigitCounts(n)))
	}
}

// replayRun executes the same request on the benchmark's own engine, then
// builds the workflow with pype and enacts it with dataflow directly.
func (b *bench) replayRun(kind string, n int, httpDur time.Duration) {
	mapping := mappingOf[kind]
	args := map[string]any{"num": float64(runProcs)}
	t := time.Now()
	var err error
	b.tr.do("engine.execute", 0, func() {
		_, err = b.eng.Execute(core.ExecutionRequest{
			WorkflowCode: b.primeCode, Input: float64(n), Process: mapping, Args: args,
		})
	})
	b.overhead[kind] = append(b.overhead[kind], httpDur-time.Since(t))
	if err != nil {
		b.note("engine replay: " + err.Error())
		return
	}
	var build *pype.BuildResult
	b.tr.do("pype.build", 0, func() { build, err = pype.BuildWorkflow(primeDigitsWorkflow, pype.Options{Stdout: io.Discard}) })
	if err != nil {
		b.note("pype replay: " + err.Error())
		return
	}
	m, err := dataflow.ParseMapping(mapping)
	if err != nil {
		b.note("dataflow replay: " + err.Error())
		return
	}
	b.tr.do("dataflow."+kind, 0, func() {
		_, err = dataflow.Run(build.Graph, dataflow.Options{Mapping: m, Iterations: n, Processes: runProcs, Stdout: io.Discard})
	})
	if err != nil {
		b.note("dataflow replay: " + err.Error())
	}
}
