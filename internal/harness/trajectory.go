package harness

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"ping/internal/obs"
	"ping/internal/ping"
)

// BenchStep is one PQA slice step of one benchmark query, in the
// machine-readable BENCH_<dataset>.json format.
type BenchStep struct {
	Step         int     `json:"step"`
	MaxLevel     int     `json:"max_level"`
	NewSubParts  int     `json:"new_subparts"`
	RowsLoaded   int64   `json:"rows_loaded_cum"`
	Answers      int     `json:"answers"`
	NewAnswers   int     `json:"new_answers"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	ElapsedCumMs float64 `json:"elapsed_cum_ms"`
	// Coverage is |answers after this step| / |final answers| — the
	// paper's progressiveness metric (1 when the final answer is empty).
	Coverage float64 `json:"coverage"`
	Degraded bool    `json:"degraded,omitempty"`
}

// BenchQuery is the full progressive trajectory of one workload query:
// the per-step latency/coverage curve plus the one-shot exact-answer
// time it is compared against.
type BenchQuery struct {
	Shape        string      `json:"shape"`
	Query        string      `json:"query"`
	Steps        []BenchStep `json:"steps"`
	FinalAnswers int         `json:"final_answers"`
	PQATotalMs   float64     `json:"pqa_total_ms"`
	// EQAMs is the exact-answer (one shot, Algorithm 3) wall-clock time.
	EQAMs float64 `json:"eqa_ms"`
	// FirstAnswerMs is the elapsed time of the first step that produced
	// any answer (0 when no step did).
	FirstAnswerMs float64 `json:"first_answer_ms,omitempty"`
	// StepP50Ms / StepP95Ms / StepP99Ms are step-latency quantiles of this
	// query's run, interpolated from the ping_step_seconds histogram of a
	// per-query metrics registry.
	StepP50Ms float64 `json:"step_p50_ms"`
	StepP95Ms float64 `json:"step_p95_ms"`
	StepP99Ms float64 `json:"step_p99_ms"`
}

// BenchDictRow is one configuration of the dictionary-encoding ablation:
// the whole workload run with compressed (delta-varint) or raw resident
// sub-partition blocks, with the cache's resident footprint after the run.
type BenchDictRow struct {
	Config        string `json:"config"` // "dict" or "dict=off"
	CacheEntries  int    `json:"cache_entries"`
	CacheBytes    int64  `json:"cache_bytes"`
	CacheRawBytes int64  `json:"cache_raw_bytes"`
	// BytesPerSubPart is CacheBytes / CacheEntries — the headline
	// resident-set-per-cached-sub-partition number.
	BytesPerSubPart float64 `json:"bytes_per_cached_subpart"`
	PQATotalMs      float64 `json:"pqa_total_ms"`
	EQATotalMs      float64 `json:"eqa_total_ms"`
}

// BenchReport is the machine-readable result of one dataset's workload —
// what pingbench -json-out writes as BENCH_<dataset>.json.
type BenchReport struct {
	Dataset      string         `json:"dataset"`
	Triples      int            `json:"triples"`
	Levels       int            `json:"levels"`
	Workers      int            `json:"workers"`
	Scale        float64        `json:"scale"`
	Seed         int64          `json:"seed"`
	Queries      []BenchQuery   `json:"queries"`
	DictAblation []BenchDictRow `json:"dict_ablation"`
}

// BenchJSON runs the standard workload of one dataset progressively and
// exactly, recording per-query trajectories.
func (s *Suite) BenchJSON(name string) (*BenchReport, error) {
	b, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{
		Dataset: name,
		Triples: b.Data.Graph.Len(),
		Levels:  b.Layout.NumLevels,
		Workers: s.Workers,
		Scale:   b.Spec.Scale * s.Scale,
		Seed:    s.Seed,
	}
	for _, lq := range s.Workload(b).All() {
		bq := BenchQuery{Shape: lq.Shape, Query: lq.Query.String()}

		// A per-query registry isolates this run's ping_step_seconds
		// histogram, so the quantiles below describe this query alone.
		reg := obs.NewRegistry()
		proc := s.Processor(b, ping.Options{Metrics: reg})

		res, err := proc.PQACtx(context.Background(), lq.Query)
		if err != nil {
			return nil, err
		}
		for i, st := range res.Steps {
			bq.Steps = append(bq.Steps, BenchStep{
				Step:         st.Step,
				MaxLevel:     st.MaxLevel,
				NewSubParts:  len(st.NewSubParts),
				RowsLoaded:   st.RowsLoadedCum,
				Answers:      st.Answers.Card(),
				NewAnswers:   st.NewAnswers,
				ElapsedMs:    ms(st.Elapsed),
				ElapsedCumMs: ms(st.ElapsedCum),
				Coverage:     res.Coverage(i),
				Degraded:     st.Degraded,
			})
			if bq.FirstAnswerMs == 0 && st.Answers.Card() > 0 {
				bq.FirstAnswerMs = ms(st.ElapsedCum)
			}
		}
		bq.FinalAnswers = res.Final.Card()
		if n := len(res.Steps); n > 0 {
			bq.PQATotalMs = ms(res.Steps[n-1].ElapsedCum)
		}
		stepHist := reg.Histogram("ping_step_seconds", obs.TimeBuckets, nil)
		bq.StepP50Ms = stepHist.Quantile(0.5) * 1000
		bq.StepP95Ms = stepHist.Quantile(0.95) * 1000
		bq.StepP99Ms = stepHist.Quantile(0.99) * 1000

		t0 := time.Now()
		if _, err := proc.EQAFull(context.Background(), lq.Query); err != nil {
			return nil, err
		}
		bq.EQAMs = ms(time.Since(t0))

		rep.Queries = append(rep.Queries, bq)
	}

	// Dictionary-encoding ablation: the same workload end-to-end with
	// compressed resident blocks and with raw pair slices. Flipping the
	// mode drops the shared cache, so each row's footprint reflects only
	// its own representation.
	for _, cfg := range []struct {
		name string
		opts ping.Options
	}{
		{"dict", ping.Options{}},
		{"dict=off", ping.Options{DisableDictEncoding: true}},
	} {
		proc := s.Processor(b, cfg.opts)
		row := BenchDictRow{Config: cfg.name}
		for _, lq := range s.Workload(b).All() {
			t0 := time.Now()
			if _, err := proc.PQACtx(context.Background(), lq.Query); err != nil {
				return nil, err
			}
			row.PQATotalMs += ms(time.Since(t0))
			t0 = time.Now()
			if _, err := proc.EQAFull(context.Background(), lq.Query); err != nil {
				return nil, err
			}
			row.EQATotalMs += ms(time.Since(t0))
		}
		row.CacheEntries, row.CacheBytes, row.CacheRawBytes = b.Layout.SubPartCacheStats()
		if row.CacheEntries > 0 {
			row.BytesPerSubPart = float64(row.CacheBytes) / float64(row.CacheEntries)
		}
		rep.DictAblation = append(rep.DictAblation, row)
	}
	return rep, nil
}

// WriteJSON serializes the report, indented, to w.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
