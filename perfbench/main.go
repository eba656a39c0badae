// Command perfbench is the repository benchmark. It generates its inputs
// from a seed with internal/workload, drives the solver through its
// public entry points, checks every answer, and prints one JSON result
// line last on standard output.
//
//	bash perfbench/run.sh --workload oneshot --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selftest
//
// Workloads:
//
//   - oneshot: closed loop, one caller, cold library solves with default
//     options (a fresh private memo per solve).
//   - serve_hot: one client sending /v1/solve requests over loopback
//     HTTP to an in-process server whose cache was warmed during
//     set-up, one request per 10 ms unless the previous answer is
//     later. (An open loop at 100-200 req/s was tried first: on a
//     shared 2-core VM its tail percentiles, timed from when each
//     request was due, moved by 50-130% of their median from run to
//     run, so scheduler stalls rather than the server set them.)
//   - churn: closed loop, one client chaining /v1/resolve requests over
//     seeded churn traces.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the same inputs untraced and then traced (spans recorded in
// memory around every layer call, written to .bench_build/traces when
// the run ends) and reports the per-layer metrics.
//
// End-to-end metrics, every workload:
//
//   - setup_s: median of several set-ups (input generation, server
//     start, cache warm-up, base solves).
//   - latency_p50/p90/p99_ms, throughput_ops_s: the pass is cut into
//     five windows of equal operation count; each figure is the median
//     of the per-window values. An operation is timed from its call to
//     its answer.
//   - slo_met_share: operations answered correctly within the
//     workload's latency limit, over operations sent.
//   - ok_share: operations answered and passing every output check,
//     over operations sent (1 - failed share; never 0).
//   - makespan_ratio: geometric mean of makespan / lower bound over the
//     answers (serve_hot: over the distinct instances answered).
//   - peak_rss_mb: the resident set sampled every 20 ms during the
//     measured pass; the median of the five windows' peaks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloadFunc runs one workload and fills the run record.
type workloadFunc func(cfg config, r *run) error

var workloads = map[string]workloadFunc{
	"oneshot":   runOneshot,
	"serve_hot": runServeHot,
	"churn":     runChurn,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var cfg config
	var traceFlag int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: oneshot, serve_hot or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at tiny size and check the metric set against BENCHMARK.json")
	flag.Parse()
	if selftest {
		return runSelftest()
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their output checks", res.Failed, res.Attempted)
	}
	return nil
}

// execute runs one workload and assembles its result: the environment
// line and the metric table go to standard output first.
func execute(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want oneshot, serve_hot or churn)", cfg.workload)
	}
	if err := checkCheckout(); err != nil {
		return nil, err
	}
	r := newRun(cfg)
	printEnv(cfg)
	if err := fn(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	for _, d := range want {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printTable(cfg, r, want)
	for _, msg := range r.failures {
		fmt.Println("check failed:", msg)
	}
	return res, nil
}

// checkCheckout fails fast when the benchmark runs outside a checkout of
// the repository (the solver sources must sit beside perfbench/).
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of a repository checkout: %w", err)
	}
	return nil
}

// run accumulates one run's outcome counts and metric values.
type run struct {
	cfg       config
	attempted int
	failed    int
	failures  []string // first few check failures, for the log
	values    map[string]float64
	notes     []string // extra lines for the metric table (bases, trace files)
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, values: make(map[string]float64)}
}

// op records one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// set records a metric value under its name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note adds a line to the printed metric table.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// printTable prints every reported metric by name with its unit.
func printTable(cfg config, r *run, defs []metricDef) {
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d\n", cfg.workload, cfg.seed, cfg.trace, r.attempted, r.failed)
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	extra := make([]string, 0, len(r.values))
	for name := range r.values {
		if !defined(name, defs) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-34s %14.6g (unlisted)\n", name, r.values[name])
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
}

func defined(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// deadline returns when a measured loop that starts now must stop.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
