package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is kept out of tuning; confirm later claims on it.
// BENCHMARK.json names it in a workload's "why" line, and the serve_hot
// line names that workload's latency limit; the self-test checks both.
const heldOutSeed = 7919

// latencyLimit is each workload's fixed latency limit behind
// slo_met_share: an operation meets it when it succeeds within the
// limit. Each limit is about twice the workload's p99 on a 2-core
// machine, where a limit at the tail itself swung the share by more
// than its bound from run to run.
var latencyLimit = map[string]time.Duration{
	"oneshot":   150 * time.Millisecond,
	"serve_hot": 10 * time.Millisecond,
	"churn":     30 * time.Millisecond,
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of a --trace 0 run, every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"slo_met_share", "ratio"},
	{"ok_share", "ratio"},
	{"makespan_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a --trace 1 run, every workload. Stage
// times are self times per traced solve; counts are per operation
// unless the name says otherwise.
var perLayer = []metricDef{
	{"core.guesses_per_op", "count"},
	{"core.failed_guesses_per_op", "count"},
	{"core.pipeline_runs_per_op", "count"},
	{"core.useful_run_ratio", "ratio"},
	{"core.fallback_share", "ratio"},
	{"core.answer_drift", "count"},
	{"core.resolve_mismatch", "count"},
	{"round.scale_ms", "ms"},
	{"classify.ms", "ms"},
	{"transform.apply_ms", "ms"},
	{"pattern.enumerate_ms", "ms"},
	{"cfgmilp.build_ms", "ms"},
	{"oracle.solve_ms", "ms"},
	{"placer.place_ms", "ms"},
	{"transform.lift_ms", "ms"},
	{"pattern.patterns_per_guess", "count"},
	{"cfgmilp.integer_vars_per_guess", "count"},
	{"oracle.bnb_nodes_per_op", "count"},
	{"oracle.lp_pivots_per_op", "count"},
	{"oracle.pivots_per_node", "count"},
	{"oracle.dp_states_per_op", "count"},
	{"oracle.wallclock_stops", "count"},
	{"oracle.time_share", "ratio"},
	{"memo.hit_ratio", "ratio"},
	{"memo.waits", "count"},
	{"memo.evictions", "count"},
	{"memo.cost_mb", "MB"},
	{"server.outside_solve_p50_ms", "ms"},
	{"server.outside_solve_p99_ms", "ms"},
	{"server.coalesced_share", "ratio"},
	{"batch.rejected_share", "ratio"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.request_bytes", "bytes"},
	{"plan.decide_us", "us"},
	{"plan.degraded_share", "ratio"},
	{"placer.repair_accept_share", "ratio"},
	{"sched.delta_apply_us", "us"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.trace_unattributed_share", "ratio"},
}

// environment is recorded with every result, on the line before it.
type environment struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	HeldOutSeed   int64              `json:"held_out_seed"`
	Trace         bool               `json:"trace"`
	Seconds       float64            `json:"seconds"`
	NumCPU        int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	GoVersion     string             `json:"go_version"`
	Commit        string             `json:"commit"`
	SourceSHA256  string             `json:"source_sha256"`
	PGO           string             `json:"pgo"`
	LatencyLimits map[string]float64 `json:"latency_limits"`
}

// printEnv prints the environment record as one JSON line.
func printEnv(cfg config) {
	env := environment{
		Workload:      cfg.workload,
		Seed:          cfg.seed,
		HeldOutSeed:   heldOutSeed,
		Trace:         cfg.trace,
		Seconds:       cfg.seconds,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        "unknown (not built in a git checkout)",
		PGO:           "off",
		LatencyLimits: make(map[string]float64),
	}
	for w, d := range latencyLimit {
		env.LatencyLimits[w+"_ms"] = float64(d) / float64(time.Millisecond)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			case "-pgo":
				env.PGO = filepath.Base(s.Value)
			}
		}
	}
	env.SourceSHA256 = sourceDigest()
	line, _ := json.Marshal(env)
	fmt.Printf("env %s\n", line)
}

// sourceDigest hashes the solver's Go sources and go.mod in the
// checkout, so results from checkouts without git metadata still name
// the code they measured.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" || path == "default.pgo" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// procStatusMB reads one of the process's memory figures (VmRSS, VmHWM)
// from /proc/self/status, in MB.
func procStatusMB(key string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", key, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%g", &kb); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", key)
}

// rssSampler samples the resident set size during a measured pass.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

// startRSS starts sampling every 20 ms; finish stops it.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := procStatusMB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and sets peak_rss_mb: the samples are cut
// into five consecutive windows and the median of the windows' peaks
// is reported, so one transient spike (a collection that ran late)
// does not decide the figure. The process's all-time peak, set-up
// included, goes to the notes.
func (s *rssSampler) finish(r *run) error {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return s.err
	}
	var peaks []float64
	for w := 0; w < windows; w++ {
		win := s.mb[w*len(s.mb)/windows : (w+1)*len(s.mb)/windows]
		if len(win) > 0 {
			peaks = append(peaks, slices.Max(win))
		}
	}
	r.set("peak_rss_mb", median(peaks))
	hwm, err := procStatusMB("VmHWM")
	r.note("resident set: %d samples, all-time peak %.1f MB", len(s.mb), hwm)
	return err
}
