package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ping/internal/engine"
	"ping/internal/gmark"
	"ping/internal/ping"
)

// TestMain lets a test re-run this binary as a helper process that prints
// the input digest of one workload and seed.
func TestMain(m *testing.M) {
	if name := os.Getenv("PERFBENCH_DIGEST"); name != "" {
		in, err := makeInputs(workloads[name], 7)
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Stdout.WriteString(in.Digest + "\n")
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func digestInProcess(t *testing.T, name string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PERFBENCH_DIGEST="+name)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("helper process: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// Two processes given one seed generate the same graph, queries and
// update batch: the query generator never depends on map order.
func TestInputsAgreeAcrossProcesses(t *testing.T) {
	a := digestInProcess(t, "serve-churn")
	b := digestInProcess(t, "serve-churn")
	if a == "" || a != b {
		t.Fatalf("digests differ across processes: %q vs %q", a, b)
	}
	in, err := makeInputs(workloads["serve-churn"], 8)
	if err != nil {
		t.Fatal(err)
	}
	if in.Digest == a {
		t.Fatalf("seeds 7 and 8 gave the same inputs")
	}
}

// The hash-join oracle agrees with engine.Naive on every generated query
// of a graph small enough for Naive.
func TestOracleAgreesWithNaive(t *testing.T) {
	for _, name := range []string{"uniprot", "dbpedia", "shop"} {
		d := gmark.DatasetByName(name).Schema.Generate(0.05, 3)
		qs, err := genQueries(d, name, 4, 20000, 3)
		if err != nil {
			t.Fatal(err)
		}
		idx := newGraphIndex(d.Graph)
		for _, q := range qs {
			want := canonical(engine.Naive(d.Graph, q.Q))
			if got := idx.answer(q.Q); !got.equal(want) || !q.Oracle.equal(want) {
				t.Errorf("%s: oracle has %d rows, Naive %d\n%s", name, got.Len(), want.Len(), q.Text)
			}
		}
	}
}

// A lineage that lost one answer row fails its check, wherever the row
// went missing.
func TestDroppedRowIsCaught(t *testing.T) {
	d := gmark.DatasetByName("dbpedia").Schema.Generate(0.2, 5)
	qs, err := genQueries(d, "dbpedia", 6, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStore(d.Graph, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range qs {
		l := runLineage(context.Background(), st.proc, q.Q)
		if err := l.check(q.Oracle); err != nil {
			t.Fatalf("clean lineage fails its check: %v\n%s", err, q.Text)
		}
		if len(l.steps) < 2 || q.Oracle.Len() < 2 {
			continue
		}
		checked++
		last := len(l.steps) - 1
		final := l.steps[last].Answers
		drop := func(r *engine.Relation) *engine.Relation {
			return &engine.Relation{Vars: r.Vars, Rows: r.Rows[:len(r.Rows)-1]}
		}

		bad := l
		bad.steps = append([]ping.StepResult(nil), l.steps...)
		bad.steps[last].Answers = drop(final)
		if bad.check(q.Oracle) == nil {
			t.Errorf("a row dropped from the final step went unnoticed\n%s", q.Text)
		}

		bad = l
		eqa := *l.eqaRes
		eqa.Answers = drop(l.eqaRes.Answers)
		bad.eqaRes = &eqa
		if bad.check(q.Oracle) == nil {
			t.Errorf("a row dropped from the EQA answer went unnoticed\n%s", q.Text)
		}

		s := served{steps: []int{final.Card() - 1}, final: ndLine{Done: true, Exact: true, Answers: final.Card() - 1}}
		if s.check(q.Oracle) == nil {
			t.Errorf("a served lineage one answer short went unnoticed\n%s", q.Text)
		}
	}
	if checked == 0 {
		t.Fatal("no multi-step query to inject a dropped row into")
	}
}
