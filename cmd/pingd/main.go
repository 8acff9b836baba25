// Command pingd is the long-running PING serving daemon: it loads a
// store produced by pingload and answers progressive queries over HTTP
// while accepting live updates, with snapshot isolation between the two.
//
// Every query pins the latest published epoch for its whole run and
// streams one JSON line per PQA step (NDJSON); updates are applied
// copy-on-write by a snapshot-mode maintainer and published atomically
// as a new epoch, so readers never block writers and vice versa.
// Admission control bounds concurrent queries (excess requests wait in a
// bounded queue, then get 429).
//
// Endpoints:
//
//	GET/POST /query?q=...     stream one JSON line per progressive step
//	POST     /update?op=add   apply an N-Triples body, publish new epoch
//	GET      /stats           epoch, pins, GC and admission counters
//	GET      /metrics         Prometheus text format (plus /debug/vars, pprof)
//	GET/POST /explain?q=...   query plan; ?analyze=1 runs it, ?format=text
//	GET      /workload        per-fingerprint aggregates; ?top=N, ?format=ndjson
//	GET      /slo             objectives, burn rates, alert states
//	GET      /traces          retained query trace trees (-trace); ?format=chrome
//	GET      /resources       top resource consumers by measured cost; ?top=N, ?format=ndjson
//	GET      /dashboard       live HTML dashboard polling the endpoints above
//
// With -admin-addr the introspection surface (/metrics, /debug/*,
// /traces, /resources) moves to a second listener; with -profile-dir
// the daemon captures CPU+heap profiles continuously into bounded
// rotating files and attributes profiled CPU back to query
// fingerprints via pprof labels.
//
// Usage:
//
//	pingd -store ./uniprot-store -addr :8080 -max-inflight 8 -query-timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/obs/slo"
	"ping/internal/workload"
)

func main() {
	var (
		store    = flag.String("store", "", "store directory written by pingload (required)")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 4, "dataflow workers per query")
		inflight = flag.Int("max-inflight", 4, "maximum concurrently executing queries")
		queued   = flag.Int("max-queue", 8, "maximum queries waiting for a slot (excess gets 429)")
		timeout  = flag.Duration("query-timeout", 60*time.Second, "per-query deadline, queue wait included (0 = none)")
		rows     = flag.Int("rows", 20, "maximum bindings per step line when ?bindings=1 (0 disables)")
		strategy = flag.String("strategy", "level", "slice order: level, product, largest, smallest")
		policy   = flag.String("failure-policy", "failfast", "storage failure handling: failfast or degrade")
		useBloom = flag.Bool("bloom", false, "use sub-partition Bloom filters for pruning (store must be built with -blooms)")
		retries  = flag.Int("retries", 2, "extra replica-failover rounds per block read (-1 disables retries)")

		slowLog       = flag.String("slow-query-log", "", "append NDJSON records for slow queries to this file (empty = off)")
		slowThreshold = flag.Duration("slow-query-threshold", 500*time.Millisecond, "latency at or above which a query is logged as slow")
		logMaxBytes   = flag.Int64("log-max-bytes", obs.DefaultLogMaxBytes, "size cap per log generation (slow-query log, wide events, trace export)")
		logMaxFiles   = flag.Int("log-max-files", 3, "rotated generations kept per log")
		wideEvents    = flag.String("wide-events", "", "append one wide NDJSON event per completed query lineage to this file (empty = off)")
		eventQueue    = flag.Int("wide-events-queue", 1024, "bounded queue of the async wide-event sink (full = drop, never block)")
		workloadMax   = flag.Int("workload-max", 512, "maximum distinct query fingerprints tracked by the workload profiler")
		workloadOut   = flag.String("workload-out", "", "write the workload snapshot (NDJSON) to this file on shutdown")
		trace         = flag.Bool("trace", false, "retain per-query trace trees, served at /traces")
		traceSample   = flag.Int("trace-sample", 1, "trace 1 in N queries (head sampling; 1 = all); traceparent requests are always traced")
		traceBuffer   = flag.Int("trace-buffer", 64, "how many trace trees the /traces ring retains")
		traceExport   = flag.String("trace-export", "", "append finished trace spans (NDJSON, one span per line) to this file (empty = off)")

		sloLatency    = flag.Duration("slo-latency", 2*time.Second, "latency SLO threshold: queries should finish within this")
		sloLatencyPct = flag.Float64("slo-latency-target", 0.99, "fraction of queries that must meet -slo-latency")
		sloFirstSteps = flag.Int("slo-first-answer-steps", 3, "first-answer SLO: first answer within this many slice steps")
		sloFirstPct   = flag.Float64("slo-first-answer-target", 0.95, "fraction of answer-bearing queries that must meet -slo-first-answer-steps")
		sloCoverage   = flag.Float64("slo-coverage", 0.5, "coverage SLO: budgeted queries should reach this coverage at budget exhaustion")
		sloCovPct     = flag.Float64("slo-coverage-target", 0.95, "fraction of budgeted queries that must meet -slo-coverage")
		sloAvailPct   = flag.Float64("slo-availability-target", 0.999, "fraction of queries that must complete without error or degradation")

		adminAddr     = flag.String("admin-addr", "", "serve /metrics, /debug/*, /traces and /resources on this separate listener (empty = everything on -addr)")
		profileDir    = flag.String("profile-dir", "", "capture CPU+heap profiles continuously into this directory (empty = off)")
		profileEvery  = flag.Duration("profile-interval", time.Minute, "continuous-profiling cadence (with -profile-dir)")
		profileWindow = flag.Duration("profile-cpu-window", 5*time.Second, "CPU sampling window per capture (with -profile-dir)")
		profileFiles  = flag.Int("profile-max-files", 3, "rotated profile generations kept per kind (bounds capture disk use)")
		runtimeEvery  = flag.Duration("runtime-metrics-interval", 10*time.Second, "runtime/metrics polling cadence for the runtime_* gauges (0 = off)")
		admissionCPU  = flag.Duration("admission-cpu", 0, "cost-based admission: shed queries once the measured CPU cost of inflight queries exceeds this budget (0 = off)")

		grace       = flag.Duration("shutdown-grace", 5*time.Second, "how long in-flight queries may drain (pausing as cursors) after SIGTERM/SIGINT")
		cursorTTL   = flag.Duration("cursor-ttl", 15*time.Minute, "how long a paused query stays resumable (bounds its snapshot lease)")
		cursorIdle  = flag.Duration("cursor-idle-evict", time.Minute, "idle time before an in-memory cursor hibernates to disk")
		cursorMax   = flag.Int("max-cursors", 1024, "maximum paused queries retained")
		cursorSweep = flag.Duration("cursor-sweep", 30*time.Second, "interval of the cursor TTL/idle-eviction sweep")
	)
	flag.Parse()
	if *store == "" {
		flag.Usage()
		os.Exit(2)
	}

	fs, err := dfs.OpenOnDisk(*store)
	if err != nil {
		fatal(err)
	}
	fs.SetRetryPolicy(*retries, 500*time.Microsecond, 50*time.Millisecond)
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		fatal(err)
	}

	cfg := serverConfig{
		Workers:         *workers,
		MaxInflight:     *inflight,
		MaxQueue:        *queued,
		QueryTimeout:    *timeout,
		RowLimit:        *rows,
		UseBloomPruning: *useBloom,
		Persist:         fs,
		CursorTTL:       *cursorTTL,
		CursorIdleEvict: *cursorIdle,
		MaxCursors:      *cursorMax,
		MaxFingerprints: *workloadMax,
		Trace:           *trace,
		TraceSample:     *traceSample,
		TraceBuffer:     *traceBuffer,
		AdmissionCPU:    *admissionCPU,
	}
	if *slowLog != "" {
		// The slow-query log rotates at -log-max-bytes so a long-running
		// daemon cannot grow it without bound.
		f, err := obs.OpenRotatingFile(*slowLog, *logMaxBytes, *logMaxFiles)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.SlowLog = workload.NewSlowLog(f, *slowThreshold)
	}
	if *wideEvents != "" {
		f, err := obs.OpenRotatingFile(*wideEvents, *logMaxBytes, *logMaxFiles)
		if err != nil {
			fatal(err)
		}
		cfg.Events = obs.NewEventLog(f, *eventQueue, nil)
		defer cfg.Events.Close()
	}
	if *traceExport != "" {
		f, err := obs.OpenRotatingFile(*traceExport, *logMaxBytes, *logMaxFiles)
		if err != nil {
			fatal(err)
		}
		cfg.SpanSink = obs.NewAsyncSink(f, 0)
		defer cfg.SpanSink.Close()
	}
	cfg.SLO = slo.NewEngine(nil,
		slo.Latency("latency", *sloLatencyPct, *sloLatency),
		slo.FirstAnswerSteps("first-answer", *sloFirstPct, *sloFirstSteps),
		slo.CoverageAtBudget("coverage-at-budget", *sloCovPct, *sloCoverage),
		slo.Availability("availability", *sloAvailPct),
	)
	if cfg.Strategy, err = parseStrategy(*strategy); err != nil {
		fatal(err)
	}
	if cfg.FailurePolicy, err = parsePolicy(*policy); err != nil {
		fatal(err)
	}

	logger := log.New(os.Stderr, "pingd: ", log.LstdFlags)
	srv := newServer(hpart.NewStore(lay), cfg)
	stopSweeper := srv.startSweeper(*cursorSweep)

	// Continuous profiling & runtime metrics: the poller exports
	// runtime_* gauges; the capturer writes CPU+heap profiles on a
	// cadence into bounded rotating files and feeds label-attributed CPU
	// back into the workload profiler (served at /resources, consulted
	// by -admission-cpu).
	if *runtimeEvery > 0 {
		poller := prof.NewPoller(nil, *runtimeEvery).Start()
		defer poller.Stop()
	}
	if *profileDir != "" {
		capt, err := prof.StartCapture(prof.CaptureConfig{
			Dir:       *profileDir,
			Interval:  *profileEvery,
			CPUWindow: *profileWindow,
			MaxFiles:  *profileFiles,
			OnCPUProfile: func(data []byte) {
				p, err := prof.ParseProfile(data)
				if err != nil {
					return
				}
				byFP, _ := p.CPUByLabel(prof.LabelQueryFP)
				for fp, ns := range byFP {
					srv.profiler.AddProfileCPU(fp, time.Duration(ns))
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer capt.Close()
		logger.Printf("continuous profiling into %s (every %v, %v CPU window, %d generations)",
			*profileDir, *profileEvery, *profileWindow, *profileFiles)
	}

	httpSrv := &http.Server{Handler: srv.handler(logger.Printf)}
	var adminSrv *http.Server
	if *adminAddr != "" {
		// Production posture: the query surface stays on -addr; metrics,
		// pprof, traces and the resource ledger move behind -admin-addr
		// (typically loopback or an internal interface).
		public, admin := srv.splitHandlers(logger.Printf)
		httpSrv.Handler = public
		adminSrv = &http.Server{Handler: admin}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before serving so the log names the address actually bound
	// (with -addr host:0 the kernel picks the port) and a port already
	// in use fails start-up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var adminLn net.Listener
	if adminSrv != nil {
		if adminLn, err = net.Listen("tcp", *adminAddr); err != nil {
			fatal(fmt.Errorf("admin listener: %w", err))
		}
	}
	logger.Printf("listening on %s", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if adminSrv != nil {
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("admin listener: %v", err)
			}
		}()
		logger.Printf("admin surface (metrics, pprof, traces, resources) listening on %s", adminLn.Addr())
	}

	fmt.Printf("serving %d triples (%d levels, epoch %d) on %s\n",
		lay.TotalTriples(), lay.NumLevels, srv.store.Epoch(), ln.Addr())
	fmt.Printf("try: curl '%s/query?q=SELECT...'   update: curl -XPOST --data-binary @delta.nt '%s/update'\n",
		ln.Addr(), ln.Addr())

	select {
	case err := <-errc:
		// Serving failed before any signal.
		fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining for up to %v", *grace)
	// In-flight queries pause at their next step boundary and park as
	// cursors, so the drain completes quickly and nothing is lost.
	srv.beginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
		httpSrv.Close()
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(shCtx); err != nil {
			adminSrv.Close()
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	stopSweeper()
	if n, err := srv.cursors.HibernateAll(); err != nil {
		logger.Printf("cursor checkpoint: %v", err)
	} else if n > 0 {
		logger.Printf("checkpointed %d paused queries to disk", n)
	}
	if *workloadOut != "" {
		if err := srv.profiler.SaveFile(*workloadOut); err != nil {
			logger.Printf("workload snapshot: %v", err)
		} else {
			logger.Printf("workload snapshot saved to %s", *workloadOut)
		}
	}
	logger.Printf("shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingd: %v\n", err)
	os.Exit(1)
}
