package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ping/internal/obs"
	"ping/internal/obs/slo"
)

// obsLine is the union of the /query NDJSON line shapes the
// observability tests care about (server_test.go's line type plus the
// pause fields).
type obsLine struct {
	Step    int    `json:"step"`
	Answers int    `json:"answers"`
	Done    bool   `json:"done"`
	Steps   int    `json:"steps"`
	Paused  bool   `json:"paused"`
	Cursor  string `json:"cursor"`
	Error   string `json:"error"`
}

func readObsLines(t *testing.T, body io.Reader) []obsLine {
	t.Helper()
	var out []obsLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l obsLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if l.Error != "" {
			t.Fatalf("in-band error: %s", l.Error)
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// lockedBuffer is a goroutine-safe bytes.Buffer for async sinks.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEndpointContentTypes walks the server's own route table and checks
// every endpoint answers 200 with the Content-Type it declares — and
// that the declared-JSON bodies actually parse. Because handler() mounts
// from the same table, an endpoint cannot be added without landing in
// this walk.
func TestEndpointContentTypes(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{Trace: true, RowLimit: 5})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`

	// A paused budgeted query supplies the cursor /resume needs.
	resp, err := http.Get(queryURL(ts.URL, qs) + "&max_steps=1")
	if err != nil {
		t.Fatal(err)
	}
	lines := readObsLines(t, resp.Body)
	resp.Body.Close()
	last := lines[len(lines)-1]
	if !last.Paused || last.Cursor == "" {
		t.Fatalf("budgeted query did not pause with a cursor: %+v", last)
	}

	// Per-path request recipes that produce a 200.
	requests := map[string]func() (*http.Response, error){
		"/query":  func() (*http.Response, error) { return http.Get(queryURL(ts.URL, qs)) },
		"/resume": func() (*http.Response, error) { return http.Get(ts.URL + "/resume?cursor=" + last.Cursor) },
		"/update": func() (*http.Response, error) {
			return http.Post(ts.URL+"/update?op=add", "application/n-triples",
				strings.NewReader("<s0> <p0> <s1> .\n"))
		},
		"/stats":     func() (*http.Response, error) { return http.Get(ts.URL + "/stats") },
		"/explain":   func() (*http.Response, error) { return http.Get(ts.URL + "/explain?q=" + url.QueryEscape(qs)) },
		"/workload":  func() (*http.Response, error) { return http.Get(ts.URL + "/workload") },
		"/slo":       func() (*http.Response, error) { return http.Get(ts.URL + "/slo") },
		"/traces":    func() (*http.Response, error) { return http.Get(ts.URL + "/traces") },
		"/resources": func() (*http.Response, error) { return http.Get(ts.URL + "/resources") },
		"/dashboard": func() (*http.Response, error) { return http.Get(ts.URL + "/dashboard") },
	}

	for _, rt := range srv.routes() {
		do, ok := requests[rt.path]
		if !ok {
			t.Errorf("route %s has no request recipe in the walk test — add one", rt.path)
			continue
		}
		resp, err := do()
		if err != nil {
			t.Fatalf("%s: %v", rt.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", rt.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != rt.contentType {
			t.Errorf("%s: Content-Type %q, want %q", rt.path, got, rt.contentType)
		}
		if rt.jsonBody {
			var doc map[string]any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Errorf("%s: declared JSON body does not parse: %v", rt.path, err)
			}
		}
	}
}

// TestTraceparentRoundTrip sends a query carrying a W3C traceparent (as
// pingquery -server does) and checks the client's trace ID lands in the
// wide query event, in the exported span NDJSON, and in the /traces ring
// — with the server's root span parented under the client's span.
func TestTraceparentRoundTrip(t *testing.T) {
	eventBuf := &lockedBuffer{}
	spanBuf := &lockedBuffer{}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(eventBuf, 64, reg)
	spans := obs.NewAsyncSink(spanBuf, 64)
	_, ts, _ := newTestServer(t, serverConfig{
		Metrics:  reg,
		Events:   events,
		SpanSink: spans,
		// Tracing deliberately OFF: a propagated traceparent must force
		// the trace anyway.
	})

	remote := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: 1}
	req, err := http.NewRequest("GET", queryURL(ts.URL, `SELECT * WHERE { ?x <p0> ?y }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	obs.InjectTraceparent(req, remote)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := readObsLines(t, resp.Body)
	resp.Body.Close()
	if last := lines[len(lines)-1]; !last.Done {
		t.Fatalf("query did not complete: %+v", last)
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}

	wantTrace := remote.TraceID.String()

	evs, err := obs.ReadWideEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("got %d wide events, want 1", len(evs))
	}
	if evs[0].TraceID != wantTrace {
		t.Fatalf("wide event trace %q, want client trace %q", evs[0].TraceID, wantTrace)
	}
	if evs[0].Steps == 0 || evs[0].Answers == 0 || evs[0].LatencyMs <= 0 {
		t.Fatalf("wide event missing lineage facts: %+v", evs[0])
	}

	sc := bufio.NewScanner(strings.NewReader(spanBuf.String()))
	var root *obs.SpanRecord
	nspans := 0
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if rec.TraceID != wantTrace {
			t.Fatalf("exported span %s trace %q, want %q", rec.Name, rec.TraceID, wantTrace)
		}
		if rec.Name == "query" {
			r := rec
			root = &r
		}
		nspans++
	}
	if nspans == 0 || root == nil {
		t.Fatalf("no exported query span (%d spans total)", nspans)
	}
	// The server's root span continues the client's span, so the trace
	// stitches together across the process boundary.
	if root.ParentSpanID != remote.SpanID.String() {
		t.Fatalf("query span parent %q, want client span %q", root.ParentSpanID, remote.SpanID)
	}
}

// fakeSLOClock is a mutable time source for the injected SLO engine.
type fakeSLOClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeSLOClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeSLOClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestSLOCoveragePageAndRecover is the acceptance scenario: budgeted
// lineages whose coverage at budget exhaustion is degraded drive the
// coverage-at-budget objective from ok to page within the fast window
// pair, visibly in /stats and /slo; once the failures age out and
// healthy budgeted traffic flows, the alert clears with no manual reset.
func TestSLOCoveragePageAndRecover(t *testing.T) {
	clk := &fakeSLOClock{t: time.Date(2026, 1, 2, 12, 0, 0, 0, time.UTC)}
	reg := obs.NewRegistry()
	engine := slo.NewEngine(reg,
		slo.CoverageAtBudget("coverage-at-budget", 0.99, 0.99),
	).WithClock(clk.now)
	_, ts, _ := newTestServer(t, serverConfig{Metrics: reg, SLO: engine})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`

	sloState := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/slo")
		if err != nil {
			t.Fatal(err)
		}
		var doc sloResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, o := range doc.Objectives {
			if o.Name == "coverage-at-budget" {
				return o.State
			}
		}
		t.Fatal("coverage-at-budget objective missing from /slo")
		return ""
	}

	if got := sloState(); got != slo.StateOK {
		t.Fatalf("initial state %q, want ok", got)
	}

	// Sanity: the query takes several steps and its first step is a
	// proper subset — so a max_steps=1 budget yields coverage < 0.99.
	full, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	fullLines := readObsLines(t, full.Body)
	full.Body.Close()
	done := fullLines[len(fullLines)-1]
	if !done.Done || done.Steps < 2 || fullLines[0].Answers >= done.Answers {
		t.Fatalf("test query unsuitable for budget degradation: first step %d/%d answers over %d steps",
			fullLines[0].Answers, done.Answers, done.Steps)
	}

	// Fault injection: budgeted lineages that exhaust their one-step
	// budget early (pause) and only complete on resume. Their coverage at
	// the budget boundary is the degraded signal.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(queryURL(ts.URL, qs) + "&max_steps=1")
		if err != nil {
			t.Fatal(err)
		}
		lines := readObsLines(t, resp.Body)
		resp.Body.Close()
		last := lines[len(lines)-1]
		if !last.Paused {
			t.Fatalf("budgeted query did not pause: %+v", last)
		}
		rr, err := http.Get(ts.URL + "/resume?cursor=" + last.Cursor)
		if err != nil {
			t.Fatal(err)
		}
		rlines := readObsLines(t, rr.Body)
		rr.Body.Close()
		if fin := rlines[len(rlines)-1]; !fin.Done {
			t.Fatalf("resume did not complete: %+v", fin)
		}
	}

	// All bad events sit in both fast windows: the objective pages.
	if got := sloState(); got != slo.StatePage {
		t.Fatalf("state after degraded budgeted lineages = %q, want page", got)
	}

	// The page is visible in /stats too.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.SLOStates["coverage-at-budget"] != slo.StatePage {
		t.Fatalf("/stats slo_states = %v, want coverage-at-budget page", st.SLOStates)
	}

	// Recovery: the failures age past the 5m and 30m windows, and
	// healthy budgeted traffic (budget wide enough to finish: coverage
	// 1.0 at the boundary) flows. The alert clears automatically.
	clk.advance(31 * time.Minute)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(queryURL(ts.URL, qs) + "&max_steps=100")
		if err != nil {
			t.Fatal(err)
		}
		lines := readObsLines(t, resp.Body)
		resp.Body.Close()
		if fin := lines[len(lines)-1]; !fin.Done {
			t.Fatalf("healthy budgeted query did not complete: %+v", fin)
		}
	}
	if got := sloState(); got != slo.StateOK {
		t.Fatalf("state after recovery = %q, want ok", got)
	}

	// The whole ok -> page -> ok journey was counted.
	if v := reg.Counter("slo_alert_transitions_total",
		obs.Labels{"objective": "coverage-at-budget", "to": slo.StatePage}).Value(); v != 1 {
		t.Errorf("transitions to page = %d, want 1", v)
	}
}
