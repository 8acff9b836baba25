package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
	"ping/internal/rdf"
)

// writeEvery is the number of queries per write on serve-churn; pauseEvery
// is the number of queries per lineage sent with max_steps=1 and finished
// through /resume.
const (
	writeEvery = 20
	pauseEvery = 5
)

// daemon is a running pingd child serving one store over loopback.
type daemon struct {
	cmd    *exec.Cmd
	done   chan error
	base   string
	client *http.Client
}

// buildStore partitions g onto an on-disk dfs at dir and saves it the way
// pingload does, so pingd can open it.
func buildStore(g *rdf.Graph, dir string) error {
	st, err := newStore(g, dir)
	if err != nil {
		return err
	}
	if err := st.lay.SaveDict(); err != nil {
		return err
	}
	return st.fs.SaveManifest()
}

// openStore reopens a saved store in-process.
func openStore(dir string) (*store, error) {
	fsys, err := dfs.OpenOnDisk(dir)
	if err != nil {
		return nil, err
	}
	lay, err := hpart.Load(fsys, nil)
	if err != nil {
		return nil, err
	}
	return &store{fs: fsys, lay: lay, dir: dir, proc: ping.NewProcessor(lay, ping.Options{Context: dataflow.NewContext(workers)})}, nil
}

// startDaemon starts pingd on an ephemeral loopback port and returns once
// /stats answers. Its logs, wide events, slow log and (with spans) span
// export go to logDir.
func startDaemon(bin, storeDir, logDir string, spans bool) (*daemon, error) {
	args := []string{
		"-store", storeDir,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers),
		"-max-inflight", "1",
		"-max-queue", "1",
		"-wide-events", filepath.Join(logDir, "events.ndjson"),
		"-slow-query-log", filepath.Join(logDir, "slow.ndjson"),
		"-log-max-bytes", strconv.Itoa(1 << 30),
		"-runtime-metrics-interval", "0",
	}
	if spans {
		args = append(args, "-trace-export", filepath.Join(logDir, "spans.ndjson"))
	}
	logf, err := os.Create(filepath.Join(logDir, "pingd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// pingd must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("pingd exited during start-up: %v (log in %s)", err, logf.Name())
		default:
		}
		if d.base == "" {
			if port, err := listenPort(cmd.Process.Pid); err == nil {
				d.base = fmt.Sprintf("http://127.0.0.1:%d", port)
			}
		}
		if d.base != "" {
			if resp, err := d.client.Get(d.base + "/stats"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("pingd did not answer /stats within a minute")
}

// listenPort finds the TCP port pid listens on, by matching the socket
// inodes among its open files against the kernel's socket table.
func listenPort(pid int) (int, error) {
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return 0, err
	}
	inodes := make(map[string]bool)
	for _, fd := range fds {
		link, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	table, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/tcp", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(table), "\n")[1:] {
		f := strings.Fields(line)
		// f[1] is local address:port in hex, f[3] the state (0A = LISTEN),
		// f[9] the socket inode.
		if len(f) < 10 || f[3] != "0A" || !inodes[f[9]] {
			continue
		}
		port, err := strconv.ParseUint(f[1][strings.LastIndex(f[1], ":")+1:], 16, 16)
		if err != nil {
			return 0, err
		}
		return int(port), nil
	}
	return 0, errors.New("no listening socket yet")
}

// stop sends SIGTERM, waits for pingd to drain and exit, and kills it if
// it has not exited after 20 seconds.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("pingd did not stop on SIGTERM")
	}
}

// get fetches path and decodes its JSON body into v.
func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ndLine is any line of a /query or /resume stream.
type ndLine struct {
	Answers   int     `json:"answers"`
	Epoch     uint64  `json:"epoch"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Done      bool    `json:"done"`
	Exact     bool    `json:"exact"`
	Paused    bool    `json:"paused"`
	Cursor    string  `json:"cursor"`
	Error     string  `json:"error"`
}

// served is one query lineage as the client saw it.
type served struct {
	first, exact time.Duration
	// resumeFirst is the time from /resume to its first step line (0 when
	// the lineage did not pause).
	resumeFirst time.Duration
	// serverMs sums the elapsed_ms pingd reported for each segment.
	serverMs float64
	bytes    int
	steps    []int
	final    ndLine
}

// stream issues one /query or /resume request, calling fn per line.
func (d *daemon) stream(path, traceparent string, s *served, fn func(ndLine)) error {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		s.bytes += len(sc.Bytes()) + 1
		var l ndLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("%s: bad line %q: %v", path, sc.Text(), err)
		}
		if l.Error != "" {
			return fmt.Errorf("%s: %s", path, l.Error)
		}
		fn(l)
	}
	return sc.Err()
}

// lineage runs q to completion: with pause, the first request carries
// max_steps=1 and the lineage is finished through /resume.
func (d *daemon) lineage(text string, pause bool, traceparent string) (served, error) {
	var s served
	start := time.Now()
	var segStart time.Time
	var paused ndLine
	onLine := func(l ndLine) {
		switch {
		case l.Done:
			s.final = l
			s.serverMs += l.ElapsedMS
		case l.Paused:
			paused = l
			s.serverMs += l.ElapsedMS
		default:
			if s.first == 0 && l.Answers > 0 {
				s.first = time.Since(start)
			}
			if s.resumeFirst == 0 && !segStart.IsZero() {
				s.resumeFirst = time.Since(segStart)
			}
			s.steps = append(s.steps, l.Answers)
		}
	}
	path := "/query?q=" + url.QueryEscape(text)
	if pause {
		path += "&max_steps=1"
	}
	if err := d.stream(path, traceparent, &s, onLine); err != nil {
		return s, err
	}
	if paused.Paused {
		segStart = time.Now()
		if err := d.stream("/resume?cursor="+url.QueryEscape(paused.Cursor), traceparent, &s, onLine); err != nil {
			return s, err
		}
	}
	s.exact = time.Since(start)
	if s.first == 0 {
		s.first = s.exact
	}
	return s, nil
}

// check verifies a served lineage: step answer counts never shrink, the
// run ends with an exact done line, and the final count is the oracle's
// for the state of the epoch it ran on.
func (s served) check(oracle answerSet) error {
	if !s.final.Done {
		return errors.New("stream ended without a done line")
	}
	for i := 1; i < len(s.steps); i++ {
		if s.steps[i] < s.steps[i-1] {
			return fmt.Errorf("step %d: answer count shrank (%d -> %d)", i+1, s.steps[i-1], s.steps[i])
		}
	}
	if len(s.steps) > 0 && s.steps[len(s.steps)-1] != s.final.Answers {
		return fmt.Errorf("last step has %d answers, done line %d", s.steps[len(s.steps)-1], s.final.Answers)
	}
	if !s.final.Exact {
		return errors.New("answer is not exact")
	}
	if s.final.Answers != oracle.Len() {
		return fmt.Errorf("%d answers, oracle has %d", s.final.Answers, oracle.Len())
	}
	return nil
}

// updateAck is pingd's /update response.
type updateAck struct {
	Epoch     uint64  `json:"epoch"`
	Triples   int64   `json:"triples"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// statsDoc is the part of /stats the benchmark reads.
type statsDoc struct {
	Epoch        uint64 `json:"epoch"`
	Triples      int64  `json:"triples"`
	RetiredFiles int    `json:"retired_files"`
	FilesRemoved int64  `json:"files_removed"`
}

// churn is the client side of serve-churn: it tracks which state (base
// or base+batch) each published epoch holds.
type churn struct {
	d        *daemon
	in       *inputs
	storeDir string
	base     int64
	updated  map[uint64]bool
	// writes counts acknowledged writes; odd means the batch is in.
	writes int
	ups    []update
}

func newChurn(d *daemon, in *inputs, storeDir string) (*churn, error) {
	var st statsDoc
	if err := d.get("/stats", &st); err != nil {
		return nil, err
	}
	return &churn{d: d, in: in, storeDir: storeDir, base: st.Triples, updated: map[uint64]bool{st.Epoch: false}}, nil
}

// write posts the next write: the batch is added when it is out and
// removed when it is in.
func (c *churn) write() (time.Duration, error) {
	op, want := "add", c.base+int64(len(c.in.Batch))
	if c.writes%2 == 1 {
		op, want = "remove", c.base
	}
	var s0, s1 statsDoc
	if err := c.d.get("/stats", &s0); err != nil {
		return 0, err
	}
	t := time.Now()
	resp, err := c.d.client.Post(c.d.base+"/update?op="+op, "application/n-triples", strings.NewReader(c.in.BatchNT))
	if err != nil {
		return 0, err
	}
	var ack updateAck
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/update: %s %s", resp.Status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &ack)
	}
	if err == nil && ack.Triples != want {
		err = fmt.Errorf("/update: store holds %d triples, want %d", ack.Triples, want)
	}
	if err != nil {
		return took, err
	}
	c.writes++
	c.updated[ack.Epoch] = c.writes%2 == 1
	if err := c.d.get("/stats", &s1); err != nil {
		return took, err
	}
	c.ups = append(c.ups, update{
		applyMs:        ack.ElapsedMS,
		filesRewritten: float64(int64(s1.RetiredFiles)+s1.FilesRemoved) - float64(int64(s0.RetiredFiles)+s0.FilesRemoved),
		bytesWritten:   float64(bytesWrittenSince(c.storeDir, t)),
	})
	return took, nil
}

// run issues operations 0, 1, ... until done(i) reports true: every
// writeEvery-th operation is preceded by a write, every pauseEvery-th
// lineage pauses. With traced, every request carries a fresh sampled
// traceparent, which makes pingd trace and export the lineage.
func (c *churn) run(b *bench, traced bool, done func(i int) bool) cycleStats {
	cs := cycleStats{traceIDs: make(map[string]bool)}
	for i := 0; !done(i); i++ {
		if i%writeEvery == writeEvery-1 {
			took, err := c.write()
			cs.busy += took
			b.op("update", err)
		}
		q := c.in.Queries[i%len(c.in.Queries)]
		tp := ""
		if traced {
			tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: 1}
			tp = tc.Traceparent()
			cs.traceIDs[tc.TraceID.String()] = true
		}
		s, err := c.d.lineage(q.Text, i%pauseEvery == pauseEvery-1, tp)
		cs.busy += s.exact
		cs.lineages++
		cs.bytes += s.bytes
		if err == nil {
			updated, known := c.updated[s.final.Epoch]
			if !known {
				err = fmt.Errorf("answered on unknown epoch %d", s.final.Epoch)
			} else {
				err = s.check(q.oracle(updated))
			}
		}
		b.op("query: "+q.Text, err)
		cs.first = append(cs.first, ms(s.first))
		cs.exact = append(cs.exact, ms(s.exact))
		cs.overhead = append(cs.overhead, ms(s.exact)-s.serverMs)
		if s.resumeFirst > 0 {
			cs.resume = append(cs.resume, ms(s.resumeFirst))
		}
	}
	return cs
}

// heapStats reads pingd's memory statistics after forcing a GC, from the
// runtime.MemStats block of its debug heap profile.
func (d *daemon) heapStats() (heapAlloc, totalAlloc, gcCPU float64, err error) {
	resp, err := d.client.Get(d.base + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	found := 0
	for sc.Scan() {
		var v float64
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HeapAlloc = "):
			v, err = strconv.ParseFloat(strings.TrimPrefix(line, "# HeapAlloc = "), 64)
			heapAlloc = v
		case strings.HasPrefix(line, "# TotalAlloc = "):
			v, err = strconv.ParseFloat(strings.TrimPrefix(line, "# TotalAlloc = "), 64)
			totalAlloc = v
		case strings.HasPrefix(line, "# GCCPUFraction = "):
			v, err = strconv.ParseFloat(strings.TrimPrefix(line, "# GCCPUFraction = "), 64)
			gcCPU = v
		default:
			continue
		}
		if err != nil {
			return 0, 0, 0, err
		}
		found++
	}
	if found != 3 {
		return 0, 0, 0, errors.New("heap profile carries no MemStats block")
	}
	return heapAlloc, totalAlloc, gcCPU, sc.Err()
}

// runServe runs serve-churn: uniprot served by a pingd child to one
// client that streams queries, pauses and resumes every pauseEvery-th
// lineage and alternately adds and removes the batch every writeEvery
// queries.
func runServe(b *bench, cfg runConfig) error {
	if cfg.pingd == "" {
		return errors.New("serve-churn needs -pingd")
	}
	in, err := makeInputs(cfg.spec, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("inputs seed=%d digest=%s triples=%d queries=%d\n", cfg.seed, in.Digest, in.Dataset.Graph.Len(), len(in.Queries))
	logDir := filepath.Join(cfg.dir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	var d *daemon
	var storeDir string
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			os.RemoveAll(storeDir)
		}
		storeDir = filepath.Join(cfg.dir, fmt.Sprint("store", i))
		runtime.GC()
		t := time.Now()
		if err := buildStore(in.Dataset.Graph, storeDir); err != nil {
			return err
		}
		if d, err = startDaemon(cfg.pingd, storeDir, logDir, cfg.traced); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	in.Dataset = nil
	c, err := newChurn(d, in, storeDir)
	var sr *serveResult
	if err == nil {
		sr, err = serveWorkload(b, cfg, c, setups)
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping pingd: %w", serr)
	}
	if err != nil {
		return err
	}
	// pingd serves no one-shot exact answering and exposes none of its
	// layers' functions, so those are measured in-process on the store
	// pingd left behind, against the oracle of the state it holds.
	st, err := openStore(storeDir)
	if err != nil {
		return err
	}
	updated := c.writes%2 == 1
	if !cfg.traced {
		var eqa []float64
		for pass := 0; pass < 3; pass++ {
			for _, q := range in.Queries {
				t := time.Now()
				r, err := st.proc.EQAFull(context.Background(), q.Q)
				if pass > 0 {
					eqa = append(eqa, ms(time.Since(t)))
				}
				if err == nil && !canonical(r.Answers).equal(q.oracle(updated)) {
					err = fmt.Errorf("EQA answers (%d rows) differ from the oracle", r.Answers.Card())
				}
				b.op("eqa: "+q.Text, err)
			}
		}
		b.set("eqa_ms.p50", "ms", quantile(eqa, .5))
		return nil
	}
	ls, _, _, err := traceCycle(b, st, in.Queries, updated)
	if err != nil {
		return err
	}
	ls.report(b, st, float64(len(in.Queries)))
	return sr.reportTraced(b, logDir)
}

// serveResult carries what the traced serve-churn run measured through
// pingd until its logs are complete, i.e. until pingd has stopped.
type serveResult struct {
	plain, traced cycleStats
	ups           []update
	allocPerQuery float64
	gcCPU         float64
}

// serveWorkload warms pingd up and runs the timed phase, setting the
// end-to-end metrics; with cfg.traced it runs an untraced and a traced
// cycle instead and returns their measurements.
func serveWorkload(b *bench, cfg runConfig, c *churn, setups []float64) (*serveResult, error) {
	var cov []float64
	for _, q := range c.in.Queries {
		s, err := c.d.lineage(q.Text, false, "")
		if err == nil {
			err = s.check(q.oracle(false))
		}
		b.op("warm-up: "+q.Text, err)
		if len(s.steps) > 0 {
			cov = append(cov, ratio(float64(s.steps[0]), float64(s.final.Answers)))
		}
	}
	// A forced collection in pingd before the timed phase.
	if _, _, _, err := c.d.heapStats(); err != nil {
		return nil, err
	}
	if cfg.traced {
		sr := &serveResult{}
		_, a0, _, err := c.d.heapStats()
		if err != nil {
			return nil, err
		}
		sr.plain = c.run(b, false, func(i int) bool { return i >= len(c.in.Queries) })
		_, a1, gc, err := c.d.heapStats()
		if err != nil {
			return nil, err
		}
		sr.traced = c.run(b, true, func(i int) bool { return i >= len(c.in.Queries) })
		sr.ups = c.ups
		sr.allocPerQuery = (a1 - a0) / float64(sr.plain.lineages) / (1 << 20)
		sr.gcCPU = gc
		return sr, nil
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var cycles []cycleStats
	for time.Now().Before(deadline) {
		cycles = append(cycles, c.run(b, false, func(i int) bool {
			return i >= len(c.in.Queries) || !time.Now().Before(deadline)
		}))
	}
	cycles = wholeCycles(cycles, len(c.in.Queries))
	heap, _, _, err := c.d.heapStats()
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples cycles=%d lineages-per-cycle=%d updates=%d setups=%d\n", len(cycles), cycles[0].lineages, len(c.ups), len(setups))
	reportCycles(b, cycles)
	b.set("first_step_coverage", "ratio", mean(cov))
	b.set("setup_s", "s", quantile(setups, .5))
	b.set("live_heap_mb", "MiB", heap/(1<<20))
	return nil, nil
}

// wideEvent is the part of pingd's wide event the benchmark reads.
type wideEvent struct {
	TraceID            string    `json:"trace_id"`
	Steps              int       `json:"steps"`
	StepMs             []float64 `json:"step_ms"`
	StepsToFirstAnswer int       `json:"steps_to_first_answer"`
	CacheHits          int64     `json:"cache_hits"`
	CacheMisses        int64     `json:"cache_misses"`
	Incremental        bool      `json:"incremental"`
	TaskMs             float64   `json:"task_ms"`
	RowsLoaded         int64     `json:"rows_loaded"`
	BytesDecoded       int64     `json:"bytes_decoded"`
	StorageBytesRead   int64     `json:"storage_bytes_read"`
}

// readNDJSON decodes every line of path into a new T.
func readNDJSON[T any](path string) ([]T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []T
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// reportTraced sets the per-layer metrics pingd itself reports for the
// traced cycle: its exported spans, its wide events, the /update acks and
// what the client saw. They replace the in-process measurements of the
// same layers.
func (sr *serveResult) reportTraced(b *bench, logDir string) error {
	tr := sr.traced
	spans, err := readNDJSON[*spanNode](filepath.Join(logDir, "spans.ndjson"))
	if err != nil {
		return err
	}
	byID := make(map[string]*spanNode)
	for _, s := range spans {
		if tr.traceIDs[s.TraceID] {
			byID[s.SpanID] = s
		}
	}
	var ts traceStats
	for _, s := range spans {
		if !tr.traceIDs[s.TraceID] {
			continue
		}
		if p, ok := byID[s.ParentID]; ok {
			p.Children = append(p.Children, s)
		}
	}
	for _, s := range spans {
		if _, ok := byID[s.ParentID]; tr.traceIDs[s.TraceID] && !ok {
			ts.add(s)
		}
	}
	ts.lineages = len(tr.traceIDs)
	ts.report(b)

	events, err := readNDJSON[wideEvent](filepath.Join(logDir, "events.ndjson"))
	if err != nil {
		return err
	}
	var n, steps, first, hits, misses, inc, task, rows, decoded, storage float64
	var stepMs []float64
	for _, e := range events {
		if !tr.traceIDs[e.TraceID] {
			continue
		}
		n++
		steps += float64(e.Steps)
		first += float64(e.StepsToFirstAnswer)
		hits += float64(e.CacheHits)
		misses += float64(e.CacheMisses)
		if e.Incremental {
			inc += float64(e.Steps)
		}
		task += e.TaskMs
		rows += float64(e.RowsLoaded)
		decoded += float64(e.BytesDecoded)
		storage += float64(e.StorageBytesRead)
		stepMs = append(stepMs, e.StepMs...)
	}
	if n == 0 {
		return errors.New("pingd wrote no wide events for the traced cycle")
	}
	fmt.Printf("samples traced-lineages=%d events=%.0f resumes=%d updates=%d\n", tr.lineages, n, len(tr.resume), len(sr.ups))
	b.set("ping.steps_per_query", "count", steps/n)
	b.set("ping.steps_to_first_answer", "count", first/n)
	b.set("ping.step_ms.p50", "ms", quantile(stepMs, .5))
	b.set("ping.incremental_step_share", "ratio", ratio(inc, steps))
	b.set("ping.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	b.set("ledger.task_ms_per_query", "ms", task/n)
	b.set("ledger.rows_loaded_per_query", "count", rows/n)
	b.set("ledger.bytes_decoded_per_query", "bytes", decoded/n)
	b.set("ledger.storage_bytes_per_query", "bytes", storage/n)
	b.set("dfs.bytes_read_per_query", "bytes", storage/n)
	reportUpdates(b, sr.ups)
	b.set("cursor.resume_ms.p50", "ms", quantile(tr.resume, .5))
	b.set("pingd.overhead_ms.p50", "ms", quantile(tr.overhead, .5))
	b.set("pingd.response_bytes_per_query", "bytes", float64(tr.bytes)/float64(tr.lineages))
	b.set("runtime.gc_cpu_share", "ratio", sr.gcCPU)
	b.set("runtime.alloc_mb_per_query", "MiB", sr.allocPerQuery)
	b.set("trace.overhead", "ratio", ratio(sr.plain.busy.Seconds()/float64(sr.plain.lineages), tr.busy.Seconds()/float64(tr.lineages)))
	return nil
}
