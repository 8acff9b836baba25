package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ping/internal/cursor"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/obs/slo"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// serverConfig carries the daemon's tunables.
type serverConfig struct {
	// Workers is the dataflow pool size of each query.
	Workers int
	// MaxInflight bounds concurrently executing queries; MaxQueue bounds
	// how many more may wait for a slot. Beyond that /query returns 429.
	MaxInflight int
	MaxQueue    int
	// QueryTimeout is the per-query deadline, queue wait included
	// (0 = none). A run that times out mid-flight parks as a cursor, so
	// the work already done stays resumable.
	QueryTimeout time.Duration
	// RowLimit caps the bindings included per step line when the client
	// asks for them (0 = never include bindings).
	RowLimit int
	// Strategy, FailurePolicy and UseBloomPruning configure query
	// processing exactly as in pingquery.
	Strategy        ping.SliceStrategy
	FailurePolicy   ping.FailurePolicy
	UseBloomPruning bool
	// Persist, when non-nil, is the on-disk file system whose manifest
	// (and the dictionary) is saved after each successful update.
	Persist *dfs.FS
	// CursorFS is the durable layer for hibernated cursors (default:
	// Persist). Nil with nil Persist keeps cursors memory-only.
	CursorFS *dfs.FS
	// CursorTTL bounds how long a paused query stays resumable (and how
	// long its epoch lease pins the snapshot); CursorIdleEvict is the
	// in-memory idle time before a cursor hibernates to CursorFS;
	// MaxCursors caps the cursor table. Zero = cursor.Config defaults.
	CursorTTL       time.Duration
	CursorIdleEvict time.Duration
	MaxCursors      int
	// Metrics receives the daemon's and the processors' series
	// (nil: obs.Default).
	Metrics *obs.Registry
	// SlowLog, when non-nil, receives a structured NDJSON record for
	// every query slower than its threshold.
	SlowLog *workload.SlowLog
	// MaxFingerprints bounds the workload profiler store (<=0: default).
	MaxFingerprints int
	// Trace retains per-query trace trees in a bounded ring served at
	// /traces. TraceSample keeps 1 in N queries (<=1: all); TraceBuffer
	// is the ring capacity (<=0: 64). A request carrying a valid
	// traceparent header is always traced, regardless of sampling.
	Trace       bool
	TraceSample int
	TraceBuffer int
	// Events, when non-nil, receives one wide query event per completed
	// lineage (the canonical per-query telemetry record).
	Events *obs.EventLog
	// SpanSink, when non-nil, receives every finished query trace as
	// flattened span NDJSON (one line per span).
	SpanSink *obs.AsyncSink
	// SLO evaluates the daemon's service-level objectives over the
	// lineage stream (nil: an engine with the default objectives).
	SLO *slo.Engine
	// AdmissionCPU, when positive, turns on cost-based admission: the
	// estimated CPU cost of all inflight queries (per-fingerprint
	// measurement from the resource ledger and captured profiles) may
	// not exceed this many CPU-seconds; excess queries get 429. Unknown
	// fingerprints always admit — shedding is by *measured* cost.
	AdmissionCPU time.Duration
}

// defaultObjectives are the SLOs pingd evaluates when the caller does
// not supply an engine: latency, the paper's two progressiveness
// signals (steps to first answer, coverage at budget exhaustion), and
// availability.
func defaultObjectives() []*slo.Objective {
	return []*slo.Objective{
		slo.Latency("latency", 0.99, 2*time.Second),
		slo.FirstAnswerSteps("first-answer", 0.95, 3),
		slo.CoverageAtBudget("coverage-at-budget", 0.95, 0.5),
		slo.Availability("availability", 0.999),
	}
}

// server is the pingd HTTP surface over one epoch store. Queries pin
// snapshots (each request builds a cheap processor with its own dataflow
// pool, so cancellation never crosses requests); updates go through the
// single snapshot-mode maintainer guarded by maintMu. Interrupted or
// budget-bounded queries park as durable cursors in the cursor manager
// and resume via /resume.
type server struct {
	store *hpart.Store
	cfg   serverConfig

	// sem holds one token per executing query; queue holds one token per
	// admitted-but-waiting query.
	sem   chan struct{}
	queue chan struct{}

	maintMu sync.Mutex
	maint   *hpart.Maintainer

	reg      *obs.Registry
	rejected *obs.Counter
	updates  *obs.Counter
	decodes  *obs.Counter

	// inflightCost tracks the summed estimated CPU nanoseconds of
	// admitted queries when cost-based admission (AdmissionCPU) is on.
	inflightCost atomic.Int64
	costRejected *obs.Counter

	profiler *workload.Profiler
	slow     *workload.SlowLog
	sampler  *obs.Sampler
	traces   *obs.SpanBuffer
	events   *obs.EventLog
	spans    *obs.AsyncSink
	slo      *slo.Engine

	cursors *cursor.Manager
	// draining flips on SIGTERM: in-flight runs pause at their next step
	// boundary and park as cursors instead of running to completion.
	draining atomic.Bool

	// stepHook, when set (tests only), runs after each delivered step
	// line, with the response already flushed. Set and cleared via
	// setStepHook; handlers read it through the atomic slot.
	stepHook atomic.Pointer[func()]
}

// setStepHook installs (or, with nil, removes) the per-step test hook.
func (s *server) setStepHook(fn func()) {
	if fn == nil {
		s.stepHook.Store(nil)
		return
	}
	s.stepHook.Store(&fn)
}

func newServer(store *hpart.Store, cfg serverConfig) *server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("pingd_rejected_total", "queries rejected by admission control (HTTP 429)")
	reg.Describe("pingd_cost_rejected_total", "queries shed by cost-based admission (measured CPU over budget)")
	reg.Describe("pingd_updates_total", "update batches applied and published as new epochs")
	reg.Describe("ping_dict_decodes_total", "integer IDs decoded to terms at NDJSON emission")
	cursorFS := cfg.CursorFS
	if cursorFS == nil {
		cursorFS = cfg.Persist
	}
	var persist func() error
	if cursorFS != nil && cursorFS == cfg.Persist {
		// Hibernated records only survive a restart if the manifest
		// knows about them.
		persist = cursorFS.SaveManifest
	}
	s := &server{
		store:        store,
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.MaxInflight),
		queue:        make(chan struct{}, cfg.MaxQueue),
		reg:          reg,
		rejected:     reg.Counter("pingd_rejected_total", nil),
		costRejected: reg.Counter("pingd_cost_rejected_total", nil),
		updates:      reg.Counter("pingd_updates_total", nil),
		decodes:      reg.Counter("ping_dict_decodes_total", nil),
		profiler:     workload.NewProfiler(workload.Options{Metrics: reg, MaxFingerprints: cfg.MaxFingerprints}),
		slow:         cfg.SlowLog,
		events:       cfg.Events,
		spans:        cfg.SpanSink,
		slo:          cfg.SLO,
		cursors: cursor.New(cursor.Config{
			FS:         cursorFS,
			TTL:        cfg.CursorTTL,
			IdleEvict:  cfg.CursorIdleEvict,
			MaxCursors: cfg.MaxCursors,
			Store:      store,
			Metrics:    reg,
			Persist:    persist,
		}),
	}
	if cfg.Trace {
		s.sampler = obs.NewSampler(cfg.TraceSample)
		s.traces = obs.NewSpanBuffer(cfg.TraceBuffer)
	}
	if s.slo == nil {
		s.slo = slo.NewEngine(reg, defaultObjectives()...)
	}
	return s
}

// beginDrain makes every in-flight query pause at its next step
// boundary and park as a cursor. Called on SIGTERM before the HTTP
// server drains.
func (s *server) beginDrain() { s.draining.Store(true) }

// startSweeper runs the cursor idle-eviction/TTL sweep on a ticker;
// the returned function stops it.
func (s *server) startSweeper(interval time.Duration) func() {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.cursors.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// route is one mounted endpoint with the Content-Type its successful
// responses carry. The table drives both handler() and the endpoint
// regression test, so a route cannot be mounted without declaring its
// content type (or tested against a stale list).
type route struct {
	path        string
	contentType string
	// jsonBody marks routes whose plain-GET 200 body is one JSON
	// document (the walk test decodes it).
	jsonBody bool
	// admin marks introspection routes that move to the -admin-addr
	// listener when the operator splits the surface (splitHandlers).
	// On the default single listener they serve alongside everything
	// else, so admin routes change nothing unless the split is on.
	admin bool
	h     http.HandlerFunc
}

// routes lists every endpoint pingd serves (beyond the obs fallback).
func (s *server) routes() []route {
	return []route{
		{"/query", "application/x-ndjson", false, false, s.handleQuery},
		{"/resume", "application/x-ndjson", false, false, s.handleResume},
		{"/update", "application/json", true, false, s.handleUpdate},
		{"/stats", "application/json", true, false, s.handleStats},
		{"/explain", "application/json", true, false, s.handleExplain},
		{"/workload", "application/json", true, false, s.handleWorkload},
		{"/slo", "application/json", true, false, s.handleSLO},
		{"/traces", "application/json", true, true, s.handleTraces},
		{"/resources", "application/json", true, true, s.handleResources},
		{"/dashboard", "text/html; charset=utf-8", false, false, s.handleDashboard},
	}
}

// handler mounts the daemon's routes on one mux. The obs introspection
// mux (/metrics, /debug/vars, pprof) serves everything not claimed here.
func (s *server) handler(logf func(format string, args ...any)) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.path, obs.Instrument(s.reg, rt.path, logf, rt.h))
	}
	mux.Handle("/", obs.Handler(s.reg))
	return mux
}

// splitHandlers mounts the query surface and the admin surface on two
// muxes for the -admin-addr production posture: the main listener keeps
// serving queries but stops exposing metrics, pprof, traces and the
// resource ledger; those move (with the obs fallback) behind the admin
// listener, which is typically bound to loopback or an internal
// interface.
func (s *server) splitHandlers(logf func(format string, args ...any)) (public, admin http.Handler) {
	mainMux := http.NewServeMux()
	adminMux := http.NewServeMux()
	for _, rt := range s.routes() {
		target := mainMux
		if rt.admin {
			target = adminMux
		}
		target.Handle(rt.path, obs.Instrument(s.reg, rt.path, logf, rt.h))
	}
	adminMux.Handle("/", obs.Handler(s.reg))
	return mainMux, adminMux
}

// admit applies the admission policy: run now if an execution slot is
// free, otherwise wait in the bounded queue. It returns a release
// function and 0, or nil and the HTTP status to reject with.
func (s *server) admit(ctx context.Context) (func(), int) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, http.StatusTooManyRequests
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-ctx.Done():
		// Deadline or disconnect while queued.
		return nil, http.StatusServiceUnavailable
	}
}

// admitCost reserves fp's estimated CPU cost against the configured
// inflight CPU budget (cost-based admission, AdmissionCPU). The
// estimate is measurement, not planning: profile-attributed CPU per
// run when captured profiles have seen the fingerprint, ledger task
// seconds otherwise. Unknown fingerprints (estimate 0) always admit —
// something must run for cost to be measured. The returned release
// gives the reservation back; ok=false means the query should be shed.
func (s *server) admitCost(fp string) (release func(), ok bool) {
	budget := int64(s.cfg.AdmissionCPU)
	if budget <= 0 {
		return func() {}, true
	}
	est := int64(s.profiler.EstimateCost(fp))
	if est <= 0 {
		return func() {}, true
	}
	for {
		cur := s.inflightCost.Load()
		// A lone over-budget query still admits (cur==0): the budget sheds
		// concurrency, it is not a per-query veto.
		if cur > 0 && cur+est > budget {
			return nil, false
		}
		if s.inflightCost.CompareAndSwap(cur, cur+est) {
			return func() { s.inflightCost.Add(-est) }, true
		}
	}
}

// rejectCost answers a cost-admission shed: 429 with a machine-readable
// reason so clients can distinguish "too many queries" from "this
// fingerprint is measured too expensive right now".
func (s *server) rejectCost(w http.ResponseWriter, fp string) {
	s.rejected.Inc()
	s.costRejected.Inc()
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":           "overloaded",
		"reason":          "cost",
		"fingerprint":     fp,
		"estimated_cpu_s": s.profiler.EstimateCost(fp).Seconds(),
	})
}

// reject answers an admission failure. Overload (429) carries a
// Retry-After hint and a JSON body so clients can back off without
// sniffing prose: {"error":"overloaded","queue":N}.
func (s *server) reject(w http.ResponseWriter, code int) {
	s.rejected.Inc()
	if code != http.StatusTooManyRequests {
		http.Error(w, http.StatusText(code), code)
		return
	}
	queued := len(s.queue)
	// Every queued query must wait for an execution slot; assume about a
	// second per slot turn as the floor for the client's next attempt.
	retry := 1 + queued/max(1, s.cfg.MaxInflight)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": "overloaded", "queue": queued})
}

// parseBudget reads the client's ?max_steps=, ?max_rows= and ?deadline=
// budget bounds. A budgeted run executes the longest schedule prefix
// whose predicted loaded rows fit (the predicted-coverage-maximal
// prefix) and then pauses with a resumable cursor instead of erroring.
func parseBudget(r *http.Request) (ping.Budget, error) {
	var b ping.Budget
	q := r.URL.Query()
	if v := q.Get("max_steps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max_steps %q", v)
		}
		b.MaxSteps = n
	}
	if v := q.Get("max_rows"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max_rows %q", v)
		}
		b.MaxLoadedRows = n
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return b, fmt.Errorf("bad deadline %q", v)
		}
		b.Deadline = d
	}
	return b, nil
}

// stepLine is one NDJSON line of a streaming query response: the state
// of the progressive answer after one slice step. Epoch is constant
// across all lines of one response — the run is pinned to a snapshot.
// Cursor is the resume token as of this step: whatever line the client
// saw last, it can hand that token to /resume.
type stepLine struct {
	Step        int                 `json:"step"`
	MaxLevel    int                 `json:"max_level"`
	Epoch       uint64              `json:"epoch"`
	Answers     int                 `json:"answers"`
	NewAnswers  int                 `json:"new_answers"`
	RowsLoaded  int64               `json:"rows_loaded_cum"`
	ElapsedMS   float64             `json:"elapsed_ms"`
	Cursor      string              `json:"cursor,omitempty"`
	Restarted   bool                `json:"restarted,omitempty"`
	Degraded    bool                `json:"degraded,omitempty"`
	MissingSubP int                 `json:"missing_subparts,omitempty"`
	Bindings    []map[string]string `json:"bindings,omitempty"`
}

// doneLine terminates a streaming query response.
type doneLine struct {
	Done      bool    `json:"done"`
	Steps     int     `json:"steps"`
	Answers   int     `json:"answers"`
	Epoch     uint64  `json:"epoch"`
	Exact     bool    `json:"exact"`
	Segments  int     `json:"segments,omitempty"`
	Restarted bool    `json:"restarted,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// pausedLine terminates a segment that stopped before the final step:
// the run is parked as a cursor and Cursor resumes it.
type pausedLine struct {
	Paused       bool    `json:"paused"`
	Reason       string  `json:"reason"`
	Cursor       string  `json:"cursor"`
	Steps        int     `json:"steps"`
	PlannedSteps int     `json:"planned_steps"`
	Answers      int     `json:"answers"`
	Epoch        uint64  `json:"epoch"`
	Restarted    bool    `json:"restarted,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// errLine reports a failure after streaming has started (the status
// line is long gone by then).
type errLine struct {
	Error string `json:"error"`
}

// segment is the handler-side state of one run segment of a query
// lineage: the NDJSON emitter plus everything the pause/complete paths
// need (latest step, latest checkpoint, per-step counters).
type segment struct {
	s            *server
	enc          *json.Encoder
	flusher      http.Flusher
	id           [16]byte
	dict         *rdf.DictView
	wantBindings bool
	restarted    bool

	steps       int
	last        ping.StepResult
	lastCp      *ping.Checkpoint
	stepMs      []float64
	stepAnswers []int
	subParts    int
	cacheHits   int64
	cacheMisses int64

	// led is the segment's resource ledger; the handler attaches it to
	// the run context so every layer below (ping, engine, dataflow, dfs)
	// accounts into it. Nil-safe: all Ledger methods accept nil.
	led *prof.Ledger
}

func (s *server) newSegment(w http.ResponseWriter, id [16]byte, wantBindings bool) *segment {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	return &segment{
		s:            s,
		enc:          json.NewEncoder(w),
		flusher:      flusher,
		id:           id,
		dict:         s.store.Current().DictView(),
		wantBindings: wantBindings,
	}
}

// term decodes one binding ID through the segment's dictionary snapshot.
// The snapshot is taken at segment creation; if the run pinned a newer
// epoch (published between segment setup and the pin), its answers can
// carry IDs past the snapshot, so refresh from the current layout —
// the dictionary is append-only, so the newer view covers every older ID.
func (g *segment) term(id rdf.ID) string {
	if int(id) >= g.dict.Len() {
		g.dict = g.s.store.Current().DictView()
	}
	return g.dict.TermString(id)
}

func (g *segment) emit(v any) {
	_ = g.enc.Encode(v)
	if g.flusher != nil {
		g.flusher.Flush()
	}
}

// step is the PQA callback: record the step, stream its line (stamped
// with a resume token), and keep going unless the client is gone or the
// server is draining.
func (g *segment) step(ctx context.Context) func(ping.StepResult, *ping.Checkpoint) bool {
	return func(st ping.StepResult, cp *ping.Checkpoint) bool {
		g.steps++
		g.last = st
		g.lastCp = cp
		g.stepMs = append(g.stepMs, float64(st.Elapsed.Microseconds())/1e3)
		g.stepAnswers = append(g.stepAnswers, st.Answers.Card())
		g.subParts += len(st.NewSubParts)
		g.cacheHits += st.CacheHits
		g.cacheMisses += st.CacheMisses
		line := stepLine{
			Step:        st.Step,
			MaxLevel:    st.MaxLevel,
			Epoch:       st.Epoch,
			Answers:     st.Answers.Card(),
			NewAnswers:  st.NewAnswers,
			RowsLoaded:  st.RowsLoadedCum,
			ElapsedMS:   float64(st.ElapsedCum.Microseconds()) / 1e3,
			Cursor:      cursor.Token(g.id, st.Step),
			Restarted:   g.restarted,
			Degraded:    st.Degraded,
			MissingSubP: len(st.MissingSubParts),
		}
		if g.wantBindings {
			for i, row := range st.Answers.BindingMaps() {
				if i >= g.s.cfg.RowLimit {
					break
				}
				m := make(map[string]string, len(row))
				for v, id := range row {
					m[v] = g.term(id)
				}
				g.s.decodes.Add(int64(len(row)))
				g.led.AddDictDecodes(int64(len(row)))
				line.Bindings = append(line.Bindings, m)
			}
		}
		g.emit(line)
		if hook := g.s.stepHook.Load(); hook != nil {
			(*hook)()
		}
		return ctx.Err() == nil && !g.s.draining.Load()
	}
}

// pauseReason maps a segment outcome to the reason string on the paused
// line.
func (g *segment) pauseReason(ctx context.Context, st *ping.RunStatus) string {
	if st.Reason != ping.StopCallback {
		return string(st.Reason)
	}
	if g.s.draining.Load() {
		return "draining"
	}
	if ctx.Err() != nil {
		return "disconnected"
	}
	return string(ping.StopCallback)
}

// lineageMeta carries the completion context lineageObservation cannot
// recover from the segment alone: the trace identity, the budget the
// client declared, the snapshot signature, and — for resumed lineages —
// which cursor they came through and where the last budget pause left
// them.
type lineageMeta struct {
	traceID   string
	layoutSig uint64
	budget    ping.Budget
	// resumedFrom identifies the cursor a multi-segment lineage resumed
	// through ("" for single-segment runs).
	resumedFrom string
	// budgetExhaustedStep is the 1-based step the client's (latest)
	// budget ran out at — the point whose coverage the coverage-at-budget
	// SLO measures. 0 when the lineage never ran under a step budget.
	budgetExhaustedStep int
}

// maybeTrace roots a query span for the request: always when the client
// propagated a traceparent header (the trace already exists — refusing
// to continue it would orphan the client's span), otherwise when
// tracing is on and head sampling picks the request. It returns the
// (possibly span-carrying) context, the hex trace ID ("" when
// untraced), and a finish func that ends the span, retains it in the
// /traces ring and exports it to the span sink.
func (s *server) maybeTrace(ctx context.Context, name, fp, text string) (context.Context, string, func()) {
	remote, hasRemote := obs.RemoteFromContext(ctx)
	if !hasRemote && (s.traces == nil || !s.sampler.Sample()) {
		return ctx, "", func() {}
	}
	var qspan *obs.Span
	if hasRemote {
		ctx, qspan = obs.NewTraceFrom(ctx, name, remote)
	} else {
		ctx, qspan = obs.NewTrace(ctx, name)
	}
	qspan.SetAttr("fingerprint", fp)
	qspan.SetAttr("query", text)
	return ctx, qspan.TraceID().String(), func() {
		qspan.End()
		if s.traces != nil {
			s.traces.Add(qspan)
		}
		s.exportTrace(qspan)
	}
}

// exportTrace writes a finished trace to the span sink, one flattened
// span per NDJSON line.
func (s *server) exportTrace(root *obs.Span) {
	if s.spans == nil {
		return
	}
	for _, rec := range obs.Flatten(root) {
		if line, err := json.Marshal(rec); err == nil {
			s.spans.Emit(line)
		}
	}
}

// lineageObservation folds a COMPLETED lineage into the workload
// profiler, the slow-query log, the wide-event stream and the SLO
// engine — called exactly once per lineage, with the latency summed
// across its segments.
func (s *server) lineageObservation(fp, canonical, shape, text string, latency time.Duration, segments int, stepAnswers []int, g *segment, runErr error, meta lineageMeta) {
	obsv := workload.Observation{
		Latency:  latency,
		Steps:    len(stepAnswers),
		Segments: segments,
		Error:    runErr != nil,
	}
	var sq workload.SlowQuery
	if len(stepAnswers) > 0 && g.steps > 0 {
		final := g.last.Answers.Card()
		obsv.Answers = final
		obsv.Epoch = g.last.Epoch
		obsv.Degraded = g.last.Degraded
		obsv.Coverage = make([]float64, len(stepAnswers))
		for i, n := range stepAnswers {
			if final > 0 {
				obsv.Coverage[i] = float64(n) / float64(final)
			} else {
				obsv.Coverage[i] = 1
			}
			if obsv.StepsToFirstAnswer == 0 && n > 0 {
				obsv.StepsToFirstAnswer = i + 1
			}
		}
		if obsv.StepsToFirstAnswer > 0 {
			obsv.CoverageAtFirstAnswer = obsv.Coverage[obsv.StepsToFirstAnswer-1]
		}
		sq.Plan = &workload.PlanSummary{
			Strategy:    s.cfg.Strategy.String(),
			Steps:       len(stepAnswers),
			SubParts:    g.subParts,
			MaxLevel:    g.last.MaxLevel,
			Incremental: g.last.Incremental,
		}
	}
	// Stamp the measured cost of the run. The ledger covers the final
	// segment's execution (earlier segments of a resumed lineage already
	// accounted their work when they parked); RowsLoaded stays the
	// lineage-cumulative count the checkpoint carries.
	snap := g.led.Snapshot()
	obsv.TaskSeconds = float64(snap.TaskNanos) / 1e9
	obsv.BytesDecoded = snap.BytesDecoded
	obsv.StorageBytesRead = snap.StorageBytesRead
	obsv.CacheBytesPinned = snap.CacheBytesPinned
	obsv.DictDecodes = snap.DictDecodes
	obsv.PeakRelationRows = snap.PeakRelationRows
	if g.steps > 0 {
		obsv.RowsLoaded = g.last.RowsLoadedCum
	} else {
		obsv.RowsLoaded = snap.RowsLoaded
	}
	s.profiler.ObserveFingerprint(fp, canonical, shape, obsv)
	sq.Fingerprint = fp
	sq.Canonical = canonical
	sq.Query = text
	sq.Epoch = obsv.Epoch
	sq.StepMs = g.stepMs
	sq.Answers = obsv.Answers
	sq.Degraded = obsv.Degraded
	if runErr != nil {
		sq.Error = runErr.Error()
	}
	s.slow.Observe(sq, latency)

	ev := obs.WideEvent{
		TraceID:            meta.traceID,
		Fingerprint:        fp,
		Shape:              shape,
		Canonical:          canonical,
		Query:              text,
		Epoch:              obsv.Epoch,
		LayoutSig:          meta.layoutSig,
		Strategy:           s.cfg.Strategy.String(),
		BudgetSteps:        meta.budget.MaxSteps,
		BudgetRows:         meta.budget.MaxLoadedRows,
		BudgetDeadline:     float64(meta.budget.Deadline.Microseconds()) / 1e3,
		Segments:           segments,
		ResumedFrom:        meta.resumedFrom,
		Steps:              len(stepAnswers),
		StepMs:             g.stepMs,
		Coverage:           obsv.Coverage,
		StepsToFirstAnswer: obsv.StepsToFirstAnswer,
		CoverageAtFirst:    obsv.CoverageAtFirstAnswer,
		Answers:            obsv.Answers,
		LatencyMs:          float64(latency.Microseconds()) / 1e3,
	}
	ev.RowsLoaded = obsv.RowsLoaded
	ev.TaskMs = obsv.TaskSeconds * 1e3
	ev.BytesDecoded = snap.BytesDecoded
	ev.StorageBytesRead = snap.StorageBytesRead
	ev.CacheBytesPinned = snap.CacheBytesPinned
	ev.DictDecodes = snap.DictDecodes
	ev.PeakRelationRows = snap.PeakRelationRows
	if g.steps > 0 {
		ev.CacheHits = g.cacheHits
		ev.CacheMisses = g.cacheMisses
		ev.Incremental = g.last.Incremental
		ev.Degraded = g.last.Degraded
		ev.MissingSubParts = len(g.last.MissingSubParts)
	}
	if runErr != nil {
		ev.Error = runErr.Error()
	}
	s.events.Emit(ev)

	sev := slo.Event{
		Latency:            latency,
		StepsToFirstAnswer: obsv.StepsToFirstAnswer,
		Answers:            obsv.Answers,
		Err:                runErr != nil,
		Degraded:           obsv.Degraded,
	}
	if n := meta.budgetExhaustedStep; n > 0 && n <= len(obsv.Coverage) {
		sev.Budgeted = true
		sev.Coverage = obsv.Coverage[n-1]
	}
	s.slo.Observe(sev)
}

// handleQuery streams a progressive query: one JSON object per PQA step
// (each stamped with a resume cursor token), then a done or paused
// line. ?q= carries the SPARQL text (or the POST body does);
// ?bindings=1 includes up to RowLimit decoded rows per step;
// ?max_steps=/?max_rows=/?deadline= bound the segment, pausing with a
// cursor at the budget boundary.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	text := r.URL.Query().Get("q")
	if text == "" && r.Body != nil {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		text = string(body)
	}
	if text == "" {
		http.Error(w, "missing query: pass ?q= or a request body", http.StatusBadRequest)
		return
	}
	q, err := sparql.Parse(text)
	if err != nil {
		http.Error(w, fmt.Sprintf("parse: %v", err), http.StatusBadRequest)
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wantBindings := r.URL.Query().Get("bindings") == "1" && s.cfg.RowLimit > 0

	canonical := workload.Canonical(q)
	fp := workload.FingerprintCanonical(canonical)
	shape := sparql.Classify(q).String()

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	// Cost-based admission first (it is cheap and does not queue), then
	// the slot/queue gate.
	costRelease, ok := s.admitCost(fp)
	if !ok {
		s.rejectCost(w, fp)
		return
	}
	defer costRelease()
	release, code := s.admit(ctx)
	if release == nil {
		s.reject(w, code)
		return
	}
	defer release()

	// Head-sampled tracing: the run's whole span tree (pqa → slice →
	// join) lands in the bounded ring served at /traces and the span
	// export sink. A propagated traceparent forces the trace on.
	ctx, traceID, finishTrace := s.maybeTrace(ctx, "query", fp, text)
	defer finishTrace()

	// Resource attribution: the ledger collects the run's measured cost
	// through every layer, and the fingerprint becomes a pprof label on
	// all of the run's goroutines so captured CPU profiles attribute
	// samples back to this query class.
	led := prof.NewLedger()
	ctx = prof.WithLedger(prof.WithQueryFP(ctx, fp), led)

	proc := s.newProcessor(s.cfg.Strategy, s.cfg.FailurePolicy)
	id, err := cursor.NewID()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Lease the snapshot up front: if this segment pauses, the cursor
	// inherits the lease and the resume continues on the exact same
	// snapshot (until the lease TTL reclaims it).
	lease, lay := s.cursors.Lease()

	g := s.newSegment(w, id, wantBindings)
	g.led = led
	meta := lineageMeta{traceID: traceID, layoutSig: lay.Signature(), budget: budget}
	start := time.Now()
	st, err := proc.PQARunOn(ctx, lay, q, budget, g.step(ctx))
	latency := time.Since(start)

	if err != nil {
		// Interrupted mid-step (client disconnect or timeout): the last
		// completed step's checkpoint still parks as a cursor, so the
		// client's tokens keep working.
		if ctx.Err() != nil && g.lastCp != nil {
			s.parkSegment(g, ctx, &ping.RunStatus{Reason: ping.StopCallback, Checkpoint: g.lastCp},
				fp, lease, latency, start)
			return
		}
		lease.Release()
		s.lineageObservation(fp, canonical, shape, text, latency, 1, g.stepAnswers, g, err, meta)
		g.emit(errLine{Error: err.Error()})
		return
	}
	if !st.Done {
		s.parkSegment(g, ctx, st, fp, lease, latency, start)
		return
	}
	lease.Release()
	if budget.MaxSteps > 0 {
		// The budget never bound the run (it completed); coverage at the
		// budget boundary is still the progressive contract's measure.
		meta.budgetExhaustedStep = min(budget.MaxSteps, g.steps)
	}
	s.lineageObservation(fp, canonical, shape, text, latency, 1, g.stepAnswers, g, nil, meta)
	done := doneLine{
		Done:      true,
		Steps:     g.steps,
		Epoch:     s.store.Epoch(),
		Exact:     g.steps > 0 && !g.last.Degraded,
		Segments:  1,
		ElapsedMS: float64(latency.Microseconds()) / 1e3,
	}
	if g.steps > 0 {
		done.Epoch = g.last.Epoch
		done.Answers = g.last.Answers.Card()
	} else {
		// Unsafe query: no slice can hold answers; the empty result is
		// exact.
		done.Exact = true
	}
	g.emit(done)
}

// parkSegment creates the cursor for a first segment that paused, and
// emits the paused line.
func (s *server) parkSegment(g *segment, ctx context.Context, st *ping.RunStatus, fp string, lease *hpart.Lease, latency time.Duration, start time.Time) {
	h, err := s.cursors.Create(&cursor.Record{
		ID:          g.id,
		Fingerprint: fp,
		LatencyNS:   int64(latency),
		StepAnswers: append([]int(nil), g.stepAnswers...),
		Checkpoint:  *st.Checkpoint,
	}, lease)
	if err != nil {
		g.emit(errLine{Error: err.Error()})
		return
	}
	g.emit(pausedLine{
		Paused:       true,
		Reason:       g.pauseReason(ctx, st),
		Cursor:       h.Token(st.Checkpoint.StepsDone),
		Steps:        st.Checkpoint.StepsDone,
		PlannedSteps: st.PlannedSteps,
		Answers:      st.Checkpoint.PrevAnswers,
		Epoch:        st.Checkpoint.Epoch,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// newProcessor builds a per-request processor. Strategy and policy are
// parameters because a resume must mirror the checkpoint's, not the
// server's current defaults.
func (s *server) newProcessor(strategy ping.SliceStrategy, policy ping.FailurePolicy) *ping.Processor {
	return ping.NewProcessorStore(s.store, ping.Options{
		Context:         dataflow.NewContext(s.cfg.Workers),
		Strategy:        strategy,
		FailurePolicy:   policy,
		UseBloomPruning: s.cfg.UseBloomPruning,
		Metrics:         s.cfg.Metrics,
	})
}

// handleResume continues a paused query from its cursor: GET
// /resume?cursor=<token>. The response is the same NDJSON stream as
// /query, continuing at the step after the checkpoint. Budget
// parameters apply to the new segment; a segment that pauses again
// re-parks the cursor. If the cursor's snapshot lease expired AND the
// data changed, the run restarts from scratch on the current snapshot
// with restarted:true stamped on every line (answers stay sound — only
// the already-completed steps are lost).
func (s *server) handleResume(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("cursor")
	if token == "" {
		http.Error(w, "missing ?cursor=", http.StatusBadRequest)
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wantBindings := r.URL.Query().Get("bindings") == "1" && s.cfg.RowLimit > 0

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	release, code := s.admit(ctx)
	if release == nil {
		s.reject(w, code)
		return
	}
	defer release()

	h, err := s.cursors.Checkout(token)
	switch {
	case errors.Is(err, cursor.ErrBadToken):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, cursor.ErrNotFound):
		http.Error(w, "unknown or expired cursor", http.StatusNotFound)
		return
	case errors.Is(err, cursor.ErrBusy):
		http.Error(w, "cursor resume already in flight", http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec := h.Record()
	cp := h.Checkpoint()
	q, err := sparql.Parse(cp.Query)
	if err != nil {
		h.Abort()
		http.Error(w, fmt.Sprintf("cursor query: %v", err), http.StatusInternalServerError)
		return
	}
	canonical := workload.Canonical(q)
	shape := sparql.Classify(q).String()
	proc := s.newProcessor(cp.Strategy, cp.FailurePolicy)

	ctx, traceID, finishTrace := s.maybeTrace(ctx, "resume", rec.Fingerprint, cp.Query)
	defer finishTrace()

	// Resume segments account and label like first segments: the ledger
	// measures this segment's work, the fingerprint labels its CPU
	// samples (the prof layer stamps stage=resume).
	led := prof.NewLedger()
	ctx = prof.WithLedger(prof.WithQueryFP(ctx, rec.Fingerprint), led)

	// Prefer the snapshot the lineage is pinned to; fall back to the
	// current one (a fresh lease) when the lease died or never survived
	// a restart.
	var (
		lay      *hpart.Layout
		newLease *hpart.Lease
	)
	if l := h.Lease(); l != nil {
		if la, unpin, ok := l.Acquire(); ok {
			lay = la
			defer unpin()
		}
	}
	if lay == nil {
		newLease, lay = s.cursors.Lease()
	}

	g := s.newSegment(w, rec.ID, wantBindings)
	g.led = led
	g.restarted = rec.Restarted
	start := time.Now()
	st, err := proc.PQAResumeRun(ctx, lay, cp, budget, g.step(ctx))
	if errors.Is(err, ping.ErrSnapshotMismatch) {
		// The leased snapshot is gone and the data changed: restart from
		// scratch on the current snapshot, marked restarted.
		g.restarted = true
		g.steps, g.lastCp, g.stepMs, g.stepAnswers, g.subParts = 0, nil, nil, nil, 0
		st, err = proc.PQARunOn(ctx, lay, q, budget, g.step(ctx))
		rec.StepAnswers = nil // the old lineage's trajectory no longer applies
	}
	latency := time.Since(start)

	finishPause := func(pauseCp *ping.Checkpoint, reason string, planned int) {
		rec.StepAnswers = append(rec.StepAnswers, g.stepAnswers...)
		h.Pause(pauseCp, latency, g.restarted && !rec.Restarted, newLease)
		g.emit(pausedLine{
			Paused:       true,
			Reason:       reason,
			Cursor:       h.Token(pauseCp.StepsDone),
			Steps:        pauseCp.StepsDone,
			PlannedSteps: planned,
			Answers:      pauseCp.PrevAnswers,
			Epoch:        pauseCp.Epoch,
			Restarted:    g.restarted,
			ElapsedMS:    float64(latency.Microseconds()) / 1e3,
		})
	}

	if err != nil {
		if ctx.Err() != nil && g.lastCp != nil {
			finishPause(g.lastCp, "disconnected", 0)
			return
		}
		// The resume failed outright; the cursor keeps its old state for
		// another attempt.
		h.Abort()
		newLease.Release()
		g.emit(errLine{Error: err.Error()})
		return
	}
	if !st.Done {
		finishPause(st.Checkpoint, g.pauseReason(ctx, st), st.PlannedSteps)
		return
	}

	// Lineage complete: observe it exactly once, with totals.
	newLease.Release()
	lineageAnswers := append(append([]int(nil), rec.StepAnswers...), g.stepAnswers...)
	meta := lineageMeta{
		traceID:     traceID,
		layoutSig:   lay.Signature(),
		budget:      budget,
		resumedFrom: fmt.Sprintf("%x", rec.ID),
	}
	if n := len(rec.StepAnswers); n > 0 {
		// Coverage at budget exhaustion: where the lineage last paused is
		// where the client's budget ran out.
		meta.budgetExhaustedStep = n
	} else if budget.MaxSteps > 0 {
		meta.budgetExhaustedStep = min(budget.MaxSteps, len(lineageAnswers))
	}
	final := h.Complete(latency)
	s.lineageObservation(final.Fingerprint, canonical, shape, cp.Query,
		time.Duration(final.LatencyNS), final.Segments, lineageAnswers, g, nil, meta)
	done := doneLine{
		Done:      true,
		Steps:     st.StepsDone,
		Epoch:     g.last.Epoch,
		Exact:     !g.last.Degraded,
		Segments:  final.Segments,
		Restarted: final.Restarted || g.restarted,
		ElapsedMS: float64(latency.Microseconds()) / 1e3,
	}
	if g.steps > 0 {
		done.Answers = g.last.Answers.Card()
	}
	g.emit(done)
}

// updateResponse acknowledges a published epoch.
type updateResponse struct {
	Epoch     uint64  `json:"epoch"`
	Added     int     `json:"added"`
	Removed   int     `json:"removed"`
	Triples   int64   `json:"triples"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleUpdate applies one maintenance batch and publishes it as a new
// epoch. The body is N-Triples; ?op=add (default) or ?op=remove selects
// the direction. Readers are never blocked: in-flight queries keep their
// pinned snapshots, and the new epoch is visible to queries admitted
// after this returns.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "POST an N-Triples body", http.StatusMethodNotAllowed)
		return
	}
	op := r.URL.Query().Get("op")
	if op == "" {
		op = "add"
	}
	if op != "add" && op != "remove" {
		http.Error(w, fmt.Sprintf("unknown op %q (want add or remove)", op), http.StatusBadRequest)
		return
	}

	// Single writer: one batch at a time, one maintainer per store.
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	// Interning terms grows the shared dictionary, which is append-only
	// and thread-safe — concurrent queries are unaffected.
	g := &rdf.Graph{Dict: s.store.Current().Dict}
	if err := rdf.ParseNTriplesInto(r.Body, g); err != nil {
		http.Error(w, fmt.Sprintf("parse body: %v", err), http.StatusBadRequest)
		return
	}

	if s.maint == nil {
		m, err := hpart.NewStoreMaintainer(s.store)
		if err != nil {
			http.Error(w, fmt.Sprintf("maintainer: %v", err), http.StatusInternalServerError)
			return
		}
		s.maint = m
	}
	var add, remove []rdf.Triple
	if op == "add" {
		add = g.Triples
	} else {
		remove = g.Triples
	}
	start := time.Now()
	if err := s.maint.Apply(add, remove); err != nil {
		// The failed epoch was never published; the maintainer's CS
		// bookkeeping may be torn, so rebuild it on the next update.
		s.maint = nil
		http.Error(w, fmt.Sprintf("apply: %v", err), http.StatusInternalServerError)
		return
	}
	s.updates.Inc()
	cur := s.store.Current()
	if s.cfg.Persist != nil {
		if err := cur.SaveDict(); err != nil {
			http.Error(w, fmt.Sprintf("save dict: %v", err), http.StatusInternalServerError)
			return
		}
		if err := s.cfg.Persist.SaveManifest(); err != nil {
			http.Error(w, fmt.Sprintf("save manifest: %v", err), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(updateResponse{
		Epoch:     cur.Epoch(),
		Added:     len(add),
		Removed:   len(remove),
		Triples:   cur.TotalTriples(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// statsResponse is the /stats document.
type statsResponse struct {
	Epoch         uint64       `json:"epoch"`
	Levels        int          `json:"levels"`
	Triples       int64        `json:"triples"`
	SubPartitions int          `json:"sub_partitions"`
	PinnedQueries int          `json:"pinned_queries"`
	PinnedEpochs  int          `json:"pinned_epochs"`
	RetiredFiles  int          `json:"retired_files"`
	FilesRemoved  int64        `json:"files_removed"`
	ActiveLeases  int          `json:"active_leases"`
	LeasesExpired int64        `json:"leases_expired"`
	Inflight      int          `json:"inflight_queries"`
	Queued        int          `json:"queued_queries"`
	Draining      bool         `json:"draining,omitempty"`
	Cursors       cursor.Stats `json:"cursors"`
	// SLOStates maps each objective to its alert state (ok, warning,
	// page); /slo has the full window breakdown.
	SLOStates map[string]string `json:"slo_states,omitempty"`
	// EventsDropped counts wide query events lost to backpressure.
	EventsDropped int64 `json:"wide_events_dropped,omitempty"`
	// Dict reports the dictionary-encoded resident layout: the term
	// dictionary itself plus the compressed sub-partition cache.
	Dict dictStats `json:"dict"`
}

// dictStats is the /stats "dict" sub-document.
type dictStats struct {
	Entries       int     `json:"entries"`
	ResidentBytes int64   `json:"resident_bytes"`
	BuildSeconds  float64 `json:"build_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	CacheBytes    int64   `json:"cache_bytes"`
	CacheRawBytes int64   `json:"cache_raw_bytes"`
	Decodes       int64   `json:"decodes"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	cur := s.store.Current()
	dv := cur.DictView()
	cacheN, cacheBytes, cacheRaw := cur.SubPartCacheStats()
	sloStates := make(map[string]string)
	for _, o := range s.slo.Snapshot() {
		sloStates[o.Name] = o.State
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsResponse{
		Epoch:         st.Epoch,
		Levels:        cur.NumLevels,
		Triples:       cur.TotalTriples(),
		SubPartitions: len(cur.SubPartitions()),
		PinnedQueries: st.PinnedQueries,
		PinnedEpochs:  st.PinnedEpochs,
		RetiredFiles:  st.RetiredFiles,
		FilesRemoved:  st.FilesRemoved,
		ActiveLeases:  st.ActiveLeases,
		LeasesExpired: st.LeasesExpired,
		Inflight:      len(s.sem),
		Queued:        len(s.queue),
		Draining:      s.draining.Load(),
		Cursors:       s.cursors.Stats(),
		SLOStates:     sloStates,
		EventsDropped: s.events.Dropped(),
		Dict: dictStats{
			Entries:       dv.Len(),
			ResidentBytes: cur.Dict.ResidentBytes(),
			BuildSeconds:  cur.DictBuildTime().Seconds(),
			CacheEntries:  cacheN,
			CacheBytes:    cacheBytes,
			CacheRawBytes: cacheRaw,
			Decodes:       s.decodes.Value(),
		},
	})
}

// parseStrategy maps the CLI strategy names used across the ping tools.
func parseStrategy(name string) (ping.SliceStrategy, error) {
	switch name {
	case "level":
		return ping.LevelCumulative, nil
	case "product":
		return ping.ProductOrder, nil
	case "largest":
		return ping.LargestFirst, nil
	case "smallest":
		return ping.SmallestFirst, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

// parsePolicy maps the CLI failure-policy names.
func parsePolicy(name string) (ping.FailurePolicy, error) {
	switch name {
	case "failfast":
		return ping.FailFast, nil
	case "degrade":
		return ping.Degrade, nil
	default:
		return 0, fmt.Errorf("unknown failure policy %q (want failfast or degrade)", name)
	}
}
