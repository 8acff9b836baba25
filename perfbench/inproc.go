package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// setupReps is how many times a run builds its store; setup_s is the
// median.
const setupReps = 5

// updates is how many writes the update phase applies, alternately
// adding and removing the batch.
const updates = 8

// store is one in-process PING deployment: an on-disk dfs, the
// partitioned layout and a processor over it.
type store struct {
	fs   *dfs.FS
	lay  *hpart.Layout
	proc *ping.Processor
	dir  string
}

// newStore partitions g onto an on-disk dfs under dir and builds a
// processor over it.
func newStore(g *rdf.Graph, dir string) (*store, error) {
	fsys, err := dfs.NewOnDisk(dir, dfs.Config{})
	if err != nil {
		return nil, err
	}
	st := &store{fs: fsys, dir: dir}
	if st.lay, err = hpart.Partition(g, hpart.Options{FS: fsys}); err != nil {
		return nil, err
	}
	st.proc = ping.NewProcessor(st.lay, ping.Options{Context: dataflow.NewContext(workers)})
	return st, nil
}

// lineage is one query answered progressively and then exactly.
type lineage struct {
	steps []ping.StepResult
	// first is the time to the first step with a non-empty answer set,
	// exact the time to the final PQA step, eqa the one-shot time.
	first, exact, eqa time.Duration
	eqaRes            *ping.ExactResult
	err               error
}

func runLineage(ctx context.Context, proc *ping.Processor, q *sparql.Query) lineage {
	var l lineage
	start := time.Now()
	l.err = proc.PQAStepsCtx(ctx, q, func(s ping.StepResult) bool {
		if l.first == 0 && s.Answers.Card() > 0 {
			l.first = time.Since(start)
		}
		l.steps = append(l.steps, s)
		return true
	})
	l.exact = time.Since(start)
	if l.first == 0 {
		l.first = l.exact
	}
	if l.err != nil {
		return l
	}
	t := time.Now()
	l.eqaRes, l.err = proc.EQAFull(ctx, q)
	l.eqa = time.Since(t)
	return l
}

// check verifies the lineage against the oracle answer.
func (l lineage) check(oracle answerSet) error {
	if l.err != nil {
		return l.err
	}
	if !l.eqaRes.Exact || (len(l.steps) > 0 && l.steps[len(l.steps)-1].Degraded) {
		return fmt.Errorf("answer is not exact")
	}
	rels := make([]*engine.Relation, len(l.steps))
	for i, s := range l.steps {
		rels[i] = s.Answers
	}
	return checkLineage(rels, l.eqaRes.Answers, oracle)
}

// firstCoverage is |answers after step 1| / |final answers|.
func (l lineage) firstCoverage() float64 {
	if len(l.steps) == 0 {
		return 0
	}
	return ratio(float64(l.steps[0].Answers.Card()), float64(l.steps[len(l.steps)-1].Answers.Card()))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func runInproc(b *bench, cfg runConfig) error {
	in, err := makeInputs(cfg.spec, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("inputs seed=%d digest=%s triples=%d queries=%d\n", cfg.seed, in.Digest, in.Dataset.Graph.Len(), len(in.Queries))
	var setups []float64
	var st *store
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, without the last store.
		st = nil
		runtime.GC()
		t := time.Now()
		if st, err = newStore(in.Dataset.Graph, filepath.Join(cfg.dir, fmt.Sprint("store", i))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// From here on the program holds everything it needs; the generator's
	// graph goes, so the heap measured below is the program's.
	in.Dataset = nil
	ctx := context.Background()

	// Warm-up: every query once, answer-checked. Coverage is a property
	// of the query set, so it is taken here.
	var cov []float64
	for _, q := range in.Queries {
		l := runLineage(ctx, st.proc, q.Q)
		b.op("warm-up: "+q.Text, l.check(q.Oracle))
		cov = append(cov, l.firstCoverage())
	}
	runtime.GC()

	if cfg.traced {
		return tracedInproc(b, st, in)
	}
	// The timed phase runs cycles over the query list; statistics are
	// taken over the whole cycles, so every query weighs the same.
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var cycles []cycleStats
	for time.Now().Before(deadline) {
		var cs cycleStats
		for _, q := range in.Queries {
			if !time.Now().Before(deadline) {
				break
			}
			l := runLineage(ctx, st.proc, q.Q)
			cs.busy += l.exact + l.eqa
			cs.lineages++
			cs.first = append(cs.first, ms(l.first))
			cs.exact = append(cs.exact, ms(l.exact))
			cs.eqa = append(cs.eqa, ms(l.eqa))
			b.op("query: "+q.Text, l.check(q.Oracle))
		}
		cycles = append(cycles, cs)
	}
	cycles = wholeCycles(cycles, len(in.Queries))
	live := liveHeapMB()
	runtime.KeepAlive(st)
	fmt.Printf("samples cycles=%d lineages-per-cycle=%d setups=%d\n", len(cycles), cycles[0].lineages, len(setups))

	reportCycles(b, cycles)
	b.set("eqa_ms.p50", "ms", quantile(pooled(cycles, func(c cycleStats) []float64 { return c.eqa }), .5))
	b.set("first_step_coverage", "ratio", mean(cov))
	b.set("setup_s", "s", quantile(setups, .5))
	b.set("live_heap_mb", "MiB", live)
	return nil
}

// liveHeapMB forces a GC and returns the bytes it found live, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// update is one acknowledged write; applyMs runs from the write to its
// acknowledgement.
type update struct {
	applyMs        float64
	filesRewritten float64
	bytesWritten   float64
}

func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// updatePhase applies the batch alternately as an addition and a
// removal, each acknowledged as pingd's /update does: the epoch is
// published and the dictionary and manifest are saved. It runs after the
// timed query phase, so it never disturbs query timings.
func updatePhase(b *bench, st *store, batch []rdf.Triple) []update {
	es := hpart.NewStore(st.lay)
	m, err := hpart.NewStoreMaintainer(es)
	b.op("update: maintainer", err)
	if err != nil {
		return nil
	}
	base := st.lay.TotalTriples()
	var out []update
	for i := 0; i < updates; i++ {
		add, remove, want := batch, []rdf.Triple(nil), base+int64(len(batch))
		if i%2 == 1 {
			add, remove, want = nil, batch, base
		}
		s0 := es.Stats()
		t := time.Now()
		err := m.Apply(add, remove)
		if err == nil {
			err = es.Current().SaveDict()
		}
		if err == nil {
			err = st.fs.SaveManifest()
		}
		if got := es.Current().TotalTriples(); err == nil && got != want {
			err = fmt.Errorf("store holds %d triples after the write, want %d", got, want)
		}
		b.op(fmt.Sprintf("update %d", i), err)
		s1 := es.Stats()
		out = append(out, update{
			applyMs:        ms(time.Since(t)),
			filesRewritten: float64(int64(s1.RetiredFiles)+s1.FilesRemoved) - float64(int64(s0.RetiredFiles)+s0.FilesRemoved),
			bytesWritten:   float64(bytesWrittenSince(st.dir, t)),
		})
	}
	return out
}

// bytesWrittenSince sums the sizes of the files under dir modified at or
// after t: what a write put on disk.
func bytesWrittenSince(dir string, t time.Time) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil && !info.ModTime().Before(t) {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cycleStats is what one pass of timed operations measured.
type cycleStats struct {
	first, exact, eqa, resume, overhead []float64
	busy                                time.Duration
	lineages, bytes                     int
	traceIDs                            map[string]bool
}

// wholeCycles drops a final partial cycle, unless no cycle completed.
func wholeCycles(cs []cycleStats, n int) []cycleStats {
	if len(cs) > 1 && cs[len(cs)-1].lineages < n {
		return cs[:len(cs)-1]
	}
	return cs
}

// pooled joins the samples f picks from every cycle.
func pooled(cs []cycleStats, f func(cycleStats) []float64) []float64 {
	var out []float64
	for _, c := range cs {
		out = append(out, f(c)...)
	}
	return out
}

// reportCycles sets the latency and throughput metrics of the timed
// phase from its whole cycles, so every query weighs the same. Time
// spent on writes counts against throughput.
func reportCycles(b *bench, cs []cycleStats) {
	first := pooled(cs, func(c cycleStats) []float64 { return c.first })
	exact := pooled(cs, func(c cycleStats) []float64 { return c.exact })
	var busy time.Duration
	for _, c := range cs {
		busy += c.busy
	}
	b.set("first_answer_ms.p50", "ms", quantile(first, .5))
	b.set("first_answer_ms.p90", "ms", quantile(first, .9))
	b.set("exact_ms.p50", "ms", quantile(exact, .5))
	b.set("exact_ms.p90", "ms", quantile(exact, .9))
	b.set("queries_per_s", "1/s", float64(len(exact))/busy.Seconds())
}
