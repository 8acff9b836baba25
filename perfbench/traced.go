package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"ping/internal/dataflow"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// spanNode is one span of a finished trace, as obs serialises it: nested
// under its parent (Span.MarshalJSON) or flat with a parent id (pingd's
// -trace-export).
type spanNode struct {
	TraceID    string         `json:"trace_id"`
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_span_id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*spanNode    `json:"children"`
}

func (s *spanNode) end() time.Time {
	return s.Start.Add(time.Duration(s.DurationMs * float64(time.Millisecond)))
}

// selfMs is the span's duration minus the part of it that its children
// cover.
func (s *spanNode) selfMs() float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.Children {
		a, b := c.Start, c.end()
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.end()) {
			b = s.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.DurationMs - ms(covered)
}

// layers are the program's span names whose self time is reported.
var layers = []string{"query", "pqa", "slice", "join", "dataflow.stage", "dfs.read", "eqa"}

// traceStats aggregates the spans of many lineages.
type traceStats struct {
	lineages       int
	self           map[string]float64
	dfsReadMs      float64
	stageMs, tasks float64
	sliceMs        float64
	sliceSelfMs    float64
}

// add folds one lineage's span tree in. Subtrees of the benchmark's own
// replay spans (bench.*) count towards self time only: their dfs reads
// and stages are the benchmark's, not the query's.
func (t *traceStats) add(root *spanNode) {
	if t.self == nil {
		t.self = make(map[string]float64)
	}
	t.lineages++
	var walk func(s *spanNode, replay bool)
	walk = func(s *spanNode, replay bool) {
		replay = replay || len(s.Name) > 6 && s.Name[:6] == "bench."
		self := s.selfMs()
		t.self[s.Name] += self
		if !replay {
			switch s.Name {
			case "dfs.read":
				t.dfsReadMs += s.DurationMs
			case "dataflow.stage":
				t.stageMs += s.DurationMs
				if n, ok := s.Attrs["tasks"].(float64); ok {
					t.tasks += n
				}
			case "slice":
				t.sliceMs += s.DurationMs
				t.sliceSelfMs += self
			}
		}
		for _, c := range s.Children {
			walk(c, replay)
		}
	}
	walk(root, false)
}

func (t *traceStats) report(b *bench) {
	n := float64(max(t.lineages, 1))
	b.set("dfs.read_ms", "ms", t.dfsReadMs/n)
	b.set("dataflow.stage_ms", "ms", t.stageMs/n)
	b.set("dataflow.tasks_per_query", "count", t.tasks/n)
	b.set("trace.unattributed_share", "ratio", ratio(t.sliceSelfMs, t.sliceMs))
	for _, l := range layers {
		b.set("trace.self_ms."+l, "ms", t.self[l]/n)
	}
}

// runtimeSample reads the runtime counters the per-layer run reports.
type runtimeSample struct {
	gcCPU, usedCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: float64(s[3].Value.Uint64()),
	}
}

// layerSamples collects the per-layer measurements of the traced cycle.
type layerSamples struct {
	parseUs, planMs, stepMs, resumeMs     []float64
	loadHitUs, loadMissMs                 []float64
	steps, stepsToFirst, incSteps         float64
	hits, misses                          float64
	replayHits, replayMisses              float64
	decodeMs, pairblockMs, evalMs         float64
	intermediate, output, peakRows        float64
	bytesRead                             float64
	taskMs, rowsLoaded, decoded, storageB float64
}

// tracedInproc is the per-layer run of an in-process workload: one
// untraced cycle over the queries, then one traced cycle (traceCycle),
// then the update phase.
func tracedInproc(b *bench, st *store, in *inputs) error {
	ctx := context.Background()
	r0 := readRuntime()
	var plain time.Duration
	for _, q := range in.Queries {
		l := runLineage(ctx, st.proc, q.Q)
		plain += l.exact + l.eqa
		b.op("query: "+q.Text, l.check(q.Oracle))
	}
	r1 := readRuntime()
	n := float64(len(in.Queries))
	ls, ts, traced, err := traceCycle(b, st, in.Queries, false)
	if err != nil {
		return err
	}
	// The cache is read before the writes invalidate it.
	ls.report(b, st, n)
	ts.report(b)
	ups := updatePhase(b, st, in.Batch)
	fmt.Printf("samples queries=%d steps=%.0f resumes=%d updates=%d\n", len(in.Queries), ls.steps, len(ls.resumeMs), len(ups))
	reportUpdates(b, ups)
	// pingd is not in the path of the in-process workloads.
	b.set("pingd.overhead_ms.p50", "ms", 0)
	b.set("pingd.response_bytes_per_query", "bytes", 0)
	b.set("runtime.gc_cpu_share", "ratio", ratio(r1.gcCPU-r0.gcCPU, r1.usedCPU-r0.usedCPU))
	b.set("runtime.alloc_mb_per_query", "MiB", (r1.allocBytes-r0.allocBytes)/n/(1<<20))
	b.set("trace.overhead", "ratio", ratio(plain.Seconds(), traced.Seconds()))
	return nil
}

func reportUpdates(b *bench, ups []update) {
	b.set("hpart.apply_ms.p50", "ms", quantile(column(ups, func(u update) float64 { return u.applyMs }), .5))
	b.set("hpart.files_rewritten_per_update", "count", mean(column(ups, func(u update) float64 { return u.filesRewritten })))
	b.set("dfs.bytes_written_per_update", "bytes", mean(column(ups, func(u update) float64 { return u.bytesWritten })))
}

// traceCycle runs every query once with a root span and a cost ledger,
// replaying each query's loads, decodes and join through the layers'
// public functions under the benchmark's own spans. It returns the
// samples, the span statistics and the lineages' total time. updated
// selects the oracle of the base+batch graph.
func traceCycle(b *bench, st *store, qs []*benchQuery, updated bool) (*layerSamples, *traceStats, time.Duration, error) {
	ctx := context.Background()
	// The replays read through a second layout over the same files, with
	// its own cache, so they never disturb the processor's cache.
	rl, err := hpart.Load(st.fs, st.lay.Dict)
	if err != nil {
		return nil, nil, 0, err
	}
	rl.EnableSubPartCache(0)
	// Warm the replay cache as the warm-up pass warmed the processor's.
	for _, q := range qs {
		for _, cands := range st.proc.QuerySlices(q.Q) {
			for _, k := range cands {
				if _, _, err := rl.ReadSubPartitionCached(ctx, k); err != nil {
					return nil, nil, 0, err
				}
			}
		}
	}
	evalCtx := dataflow.NewContext(workers)

	ls := &layerSamples{}
	ts := &traceStats{}
	var traced time.Duration
	for i, q := range qs {
		oracle := q.oracle(updated)
		tctx, root := obs.NewTrace(ctx, "query")
		led := prof.NewLedger()
		tctx = prof.WithLedger(tctx, led)

		_, sp := obs.StartSpan(tctx, "bench.sparql.parse")
		t := time.Now()
		_, err := sparql.Parse(q.Text)
		ls.parseUs = append(ls.parseUs, time.Since(t).Seconds()*1e6)
		sp.End()
		b.op("parse: "+q.Text, err)

		_, sp = obs.StartSpan(tctx, "bench.ping.explain")
		t = time.Now()
		_, err = st.proc.Explain(q.Q)
		ls.planMs = append(ls.planMs, ms(time.Since(t)))
		sp.End()
		b.op("explain: "+q.Text, err)

		read0 := st.fs.BytesRead()
		l := runLineage(tctx, st.proc, q.Q)
		ls.bytesRead += float64(st.fs.BytesRead() - read0)
		traced += l.exact + l.eqa
		b.op("query: "+q.Text, l.check(oracle))
		if l.err != nil {
			root.End()
			continue
		}
		snap := led.Snapshot()
		ls.taskMs += float64(snap.TaskNanos) / 1e6
		ls.rowsLoaded += float64(snap.RowsLoaded)
		ls.decoded += float64(snap.BytesDecoded)
		ls.storageB += float64(snap.StorageBytesRead)
		ls.addSteps(l.steps)
		if s := l.eqaRes.Stats; s != nil {
			ls.intermediate += float64(s.IntermediateRows)
			ls.output += float64(s.OutputRows)
			ls.peakRows += float64(s.PeakRows)
		}
		b.op("replay: "+q.Text, ls.replay(tctx, rl, st.proc, evalCtx, q.Q, oracle, l))
		root.End()

		raw, err := root.MarshalJSON()
		if err != nil {
			return nil, nil, 0, err
		}
		var tree spanNode
		if err := json.Unmarshal(raw, &tree); err != nil {
			return nil, nil, 0, err
		}
		ts.add(&tree)

		if i%5 == 0 {
			b.op("resume: "+q.Text, ls.resume(ctx, st, q.Q, oracle))
		}
	}
	return ls, ts, traced, nil
}

// report sets the metrics derived from the traced cycle over st.
func (ls *layerSamples) report(b *bench, st *store, n float64) {
	_, cacheBytes, cacheRaw := st.lay.SubPartCacheStats()
	b.set("sparql.parse_us.p50", "us", quantile(ls.parseUs, .5))
	b.set("ping.plan_ms.p50", "ms", quantile(ls.planMs, .5))
	b.set("ping.steps_per_query", "count", ls.steps/n)
	b.set("ping.steps_to_first_answer", "count", ls.stepsToFirst/n)
	b.set("ping.step_ms.p50", "ms", quantile(ls.stepMs, .5))
	b.set("ping.incremental_step_share", "ratio", ratio(ls.incSteps, ls.steps))
	b.set("ping.cache_hit_ratio", "ratio", ratio(ls.hits, ls.hits+ls.misses))
	b.set("hpart.cache_hit_ratio", "ratio", ratio(ls.replayHits, ls.replayHits+ls.replayMisses))
	b.set("hpart.load_hit_us", "us", quantile(ls.loadHitUs, .5))
	b.set("hpart.load_miss_ms", "ms", quantile(ls.loadMissMs, .5))
	b.set("hpart.cache_resident_mb", "MiB", float64(cacheBytes)/(1<<20))
	b.set("rdf.resident_bytes_per_pair", "bytes", ratio(float64(cacheBytes), float64(cacheRaw)/8))
	b.set("dfs.bytes_read_per_query", "bytes", ls.bytesRead/n)
	b.set("columnar.decode_ms", "ms", ls.decodeMs/n)
	b.set("rdf.pairblock_decode_ms", "ms", ls.pairblockMs/n)
	b.set("engine.evaluate_ms", "ms", ls.evalMs/n)
	b.set("engine.intermediate_rows_per_answer", "ratio", ratio(ls.intermediate, ls.output))
	b.set("engine.peak_rows", "count", ls.peakRows/n)
	b.set("ledger.task_ms_per_query", "ms", ls.taskMs/n)
	b.set("ledger.rows_loaded_per_query", "count", ls.rowsLoaded/n)
	b.set("ledger.bytes_decoded_per_query", "bytes", ls.decoded/n)
	b.set("ledger.storage_bytes_per_query", "bytes", ls.storageB/n)
	b.set("cursor.resume_ms.p50", "ms", quantile(ls.resumeMs, .5))
}

// addSteps folds one PQA run's steps into the step metrics.
func (ls *layerSamples) addSteps(steps []ping.StepResult) {
	first := float64(len(steps))
	for i, s := range steps {
		ls.stepMs = append(ls.stepMs, ms(s.Elapsed))
		ls.hits += float64(s.CacheHits)
		ls.misses += float64(s.CacheMisses)
		if s.Incremental {
			ls.incSteps++
		}
		if s.Answers.Card() > 0 && float64(i+1) < first {
			first = float64(i + 1)
		}
	}
	ls.steps += float64(len(steps))
	ls.stepsToFirst += first
}

// replay re-runs one lineage's storage and evaluation work through the
// layers' public functions: each scheduled sub-partition through the
// replay layout's cache (a miss is read again to split dfs time from
// columnar decode), every input block through PairBlock.ForEach, and
// the whole query through engine.Evaluate, whose answer is checked too.
// The replay loads one key at a time, so its hit ratio over the
// schedule is a function of the inputs; the processor's own ratio
// (StepResult counts) varies slightly between processes, because its
// workers race to insert a step's keys into the LRU.
func (ls *layerSamples) replay(ctx context.Context, rl *hpart.Layout, proc *ping.Processor, dc *dataflow.Context, q *sparql.Query, oracle answerSet, l lineage) error {
	blocks := make(map[hpart.SubPartKey]rdf.PairBlock)
	load := func(k hpart.SubPartKey) (rdf.PairBlock, error) {
		_, sp := obs.StartSpan(ctx, "bench.hpart.load")
		t := time.Now()
		blk, hit, err := rl.ReadSubPartitionCached(ctx, k)
		d := time.Since(t)
		sp.End()
		if err != nil {
			return blk, err
		}
		if hit {
			ls.loadHitUs = append(ls.loadHitUs, d.Seconds()*1e6)
		} else {
			ls.loadMissMs = append(ls.loadMissMs, ms(d))
			cctx, csp := obs.StartSpan(ctx, "bench.columnar.read")
			t := time.Now()
			_, err := rl.ReadSubPartitionCtx(cctx, k)
			total := time.Since(t)
			csp.End()
			if err != nil {
				return blk, err
			}
			ls.decodeMs += ms(total - csp.Find("dfs.read").Duration())
		}
		blocks[k] = blk
		return blk, nil
	}
	for _, s := range l.steps {
		for _, k := range s.NewSubParts {
			n := len(ls.loadHitUs)
			if _, err := load(k); err != nil {
				return err
			}
			if len(ls.loadHitUs) > n {
				ls.replayHits++
			} else {
				ls.replayMisses++
			}
		}
	}
	inputs := make([]engine.PatternInput, len(q.Patterns))
	for i, cands := range proc.QuerySlices(q) {
		inputs[i].Pattern = q.Patterns[i]
		for _, k := range cands {
			blk, ok := blocks[k]
			if !ok {
				var err error
				if blk, err = load(k); err != nil {
					return err
				}
			}
			inputs[i].Groups = append(inputs[i].Groups, engine.PropGroup{Prop: k.Prop, Rows: blk})
		}
	}

	_, sp := obs.StartSpan(ctx, "bench.rdf.pairblock_decode")
	t := time.Now()
	pairs, want := 0, 0
	for _, in := range inputs {
		for _, g := range in.Groups {
			g.Rows.ForEach(func(rdf.SOPair) { pairs++ })
			want += g.Rows.Len()
		}
	}
	ls.pairblockMs += ms(time.Since(t))
	sp.End()
	if pairs != want {
		return fmt.Errorf("PairBlock.ForEach yielded %d pairs of %d", pairs, want)
	}

	_, sp = obs.StartSpan(ctx, "bench.engine.evaluate")
	t = time.Now()
	rel, _, err := engine.Evaluate(q, inputs, rl.DictView(), engine.Options{Context: dc})
	ls.evalMs += ms(time.Since(t))
	sp.End()
	if err != nil {
		return err
	}
	if got := canonical(rel); !got.equal(oracle) {
		return fmt.Errorf("engine.Evaluate answers (%d rows) differ from the oracle (%d rows)", got.Len(), oracle.Len())
	}
	return nil
}

// resume runs q with a one-step budget, then times the resumed segment
// to its first step and checks its final answer.
func (ls *layerSamples) resume(ctx context.Context, st *store, q *sparql.Query, oracle answerSet) error {
	status, err := st.proc.PQARun(ctx, q, ping.Budget{MaxSteps: 1}, func(ping.StepResult, *ping.Checkpoint) bool { return true })
	if err != nil || status.Done {
		return err
	}
	var first time.Duration
	var last *engine.Relation
	t := time.Now()
	_, err = st.proc.PQAResumeRun(ctx, st.lay, status.Checkpoint, ping.Budget{}, func(s ping.StepResult, _ *ping.Checkpoint) bool {
		if first == 0 {
			first = time.Since(t)
		}
		last = s.Answers
		return true
	})
	if err != nil {
		return err
	}
	ls.resumeMs = append(ls.resumeMs, ms(first))
	if got := canonical(last); !got.equal(oracle) {
		return fmt.Errorf("resumed answers (%d rows) differ from the oracle (%d rows)", got.Len(), oracle.Len())
	}
	return nil
}
