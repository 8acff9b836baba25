// Command perfbench is PING's end-to-end benchmark. It generates one
// workload's inputs from a seed, builds the store, runs an untimed
// warm-up pass and then a timed phase whose every query lineage is
// answer-checked, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload deep-spill --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// traced pass and reports the per-layer metrics. run.sh builds this
// program and pingd from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// spec describes one workload.
type spec struct {
	dataset string
	scale   float64
	// perShape queries of each of star, chain and complex are generated.
	perShape int
	// maxAnswers drops candidate queries with larger exact answers.
	maxAnswers int
	serve      bool
}

var workloads = map[string]spec{
	"deep-spill":    {dataset: "dbpedia", scale: 8, perShape: 60, maxAnswers: 20000},
	"resident-join": {dataset: "shop", scale: 8, perShape: 60, maxAnswers: 20000},
	"serve-churn":   {dataset: "uniprot", scale: 4, perShape: 60, maxAnswers: 20000, serve: true},
}

// workers is the dataflow parallelism of every processor: one per CPU.
var workers = runtime.NumCPU()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates the operations and metrics of one run.
type bench struct {
	res result
}

// op counts one checked operation; a non-nil err is a failure.
func (b *bench) op(what string, err error) {
	b.res.Attempted++
	if err != nil {
		b.res.Failed++
		if b.res.Failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		}
	}
}

func (b *bench) set(name, unit string, v float64) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: deep-spill, resident-join or serve-churn")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		pingd   = flag.String("pingd", "", "pingd binary (serve-churn)")
	)
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{res: result{Metrics: make(map[string]metric)}}
	cfg := runConfig{spec: sp, seed: *seed, seconds: *seconds, traced: *trace == 1, pingd: *pingd, dir: dir}
	if sp.serve {
		err = runServe(b, cfg)
	} else {
		err = runInproc(b, cfg)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.res.Correct = b.res.Failed == 0
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// runConfig is what every workload runner is given.
type runConfig struct {
	spec    spec
	seed    int64
	seconds int
	traced  bool
	pingd   string
	dir     string
}

// quantile is the p-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
