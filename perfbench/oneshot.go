package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	bagsched "repro"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/wire"
)

// oneshotPool is how many instances the oneshot set-up generates. The
// measured loop draws further ones as it goes, so no instance is solved
// twice in a run: a repeated slow instance would weigh its cell's tail
// several times.
const oneshotPool = 20 * 20

// solved is one library solve of an input: its checked answer, its
// search statistics and its private memo's counters. It keeps no
// reference to the solver's result, so a long pass does not pin every
// result's memo in memory.
type solved struct {
	in    *input
	name  string
	ans   answer
	stats bagsched.Stats
	memo  memo.Stats
	dur   time.Duration
	at    time.Duration // when the solve ended, from the start of its pass
	err   error
}

// solveChecked runs one default-options library solve of in and checks
// the answer.
func solveChecked(ctx context.Context, in *input) solved {
	start := time.Now()
	res, err := bagsched.SolveEPTASContext(ctx, in.in, in.eps, in.opts()...)
	s := solved{in: in, name: in.name, dur: time.Since(start)}
	if err == nil {
		s.ans = answer{machine: res.Schedule.Machine, makespan: res.Makespan, lower: res.LowerBound, bound: res.Quality.Bound}
		s.stats = res.Stats
		s.stats.StageTime = nil
		if res.Memo != nil {
			s.memo = res.Memo.Stats()
		}
		err = checkAnswer(in.in, in.fam, s.ans)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", in.name, err)
	}
	return s
}

// closedLoop solves the oneshot input sequence in order, one input at a
// time, until stop: pool holds its first inputs, later ones are drawn
// as needed. gaps collects the harness time between one solve's end and
// the next one's start. Unless keep is set, each solve's assignment and
// input are dropped once checked.
func closedLoop(ctx context.Context, pool []*input, seed int64, stop time.Time, keep bool) (ops []solved, gaps []float64, elapsed time.Duration, err error) {
	start := time.Now()
	last := start
	for i := 0; time.Now().Before(stop); i++ {
		in := (*input)(nil)
		if i < len(pool) {
			in = pool[i]
		} else if in, err = roundRobin(oneshotCells, seed, i); err != nil {
			return nil, nil, 0, err
		}
		gaps = append(gaps, ms(time.Since(last)))
		s := solveChecked(ctx, in)
		last = time.Now()
		s.at = last.Sub(start)
		if !keep {
			s.ans.machine, s.in = nil, nil
		}
		ops = append(ops, s)
	}
	return ops, gaps, time.Since(start), nil
}

func runOneshot(cfg config, r *run) error {
	var pool []*input
	if err := timeSetup(r, 5, func() (err error) {
		pool, err = generateRoundRobin(oneshotCells, cfg.seed, oneshotPool)
		return err
	}); err != nil {
		return err
	}
	if cfg.trace {
		return oneshotTraced(cfg, r, pool)
	}
	rss := startRSS()
	ops, _, elapsed, err := closedLoop(context.Background(), pool, cfg.seed, deadline(cfg), false)
	if rerr := rss.finish(r); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	lat := latencies{limit: latencyLimit["oneshot"]}
	var ratios []float64
	for _, s := range ops {
		r.op(s.err)
		lat.add(s.dur, s.at, s.err == nil)
		if s.err == nil {
			ratios = append(ratios, s.ans.makespan/s.ans.lower)
		}
	}
	lat.report(r, elapsed)
	r.set("makespan_ratio", geomean(ratios))
	noteSlowest(r, ops, 20)
	return nil
}

// oneshotTraced measures the per-layer metrics of oneshot: an untraced
// closed loop over half the time budget, the staged replay of the same
// solves with spans, repeat solves for answer drift, and the traced
// replay of the heavy cells.
func oneshotTraced(cfg config, r *run, pool []*input) error {
	ctx := context.Background()
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	m0 := readMem()
	ops, gaps, untracedWall, err := closedLoop(ctx, pool, cfg.seed, time.Now().Add(half), true)
	if err != nil {
		return err
	}
	m1 := readMem()
	reportRuntime(r, m0, m1, len(ops))
	r.set("bench.generator_lag_p99_ms", quantile(gaps, 0.99))

	var coreOps []bagsched.Stats
	var hits, misses, waits, evictions int64
	var maxCost int64
	for _, s := range ops {
		r.op(s.err)
		if s.err != nil {
			continue
		}
		coreOps = append(coreOps, s.stats)
		hits += s.memo.Hits
		misses += s.memo.Misses
		waits += s.memo.Waits
		evictions += s.memo.Evictions
		maxCost = max(maxCost, s.memo.Cost)
	}
	reportCore(r, coreOps)
	r.set("memo.hit_ratio", share(float64(hits), float64(hits+misses)))
	r.set("memo.waits", float64(waits))
	r.set("memo.evictions", float64(evictions))
	r.set("memo.cost_mb", float64(maxCost)/(1<<20))
	r.note("memo.hit_ratio base: %d hits of %d lookups over %d private per-solve memos", hits, hits+misses, len(coreOps))

	// Repeat solves of the same inputs must give the same answers.
	drift := 0
	for _, s := range ops[:min(len(ops), 20)] {
		again := solveChecked(ctx, s.in)
		r.op(again.err)
		if s.err == nil && again.err == nil && !sameAnswer(s.ans, again.ans) {
			drift++
			r.note("answer drift on repeat solve of %s: makespan %v then %v", s.in.name, s.ans.makespan, again.ans.makespan)
		}
	}

	// The traced replay of the same solves.
	set := newTraceSet()
	rp := &replayer{t: set.tracer()}
	tracedStart := time.Now()
	for _, s := range ops {
		got, err := rp.solve(ctx, s.in)
		if err == nil && s.err == nil {
			got.bound = s.ans.bound
			err = checkAnswer(s.in.in, s.in.fam, got)
			if err == nil && !sameAnswer(got, s.ans) {
				drift++
				r.note("replay of %s differs from the library solve: makespan %v vs %v", s.in.name, got.makespan, s.ans.makespan)
			}
		}
		if err != nil {
			r.op(fmt.Errorf("replay %s: %w", s.in.name, err))
		}
	}
	tracedWall := time.Since(tracedStart)
	st := set.fold("op")
	unattributed := st.report(r, "op") + share(float64(st.self["guess"]+st.self["rung"]), float64(st.opTime))
	reportStages(r, st, rp.n)
	// The library searches speculatively when GOMAXPROCS > 1; the replay
	// decides one guess at a time, so the overhead includes the lost
	// speculation.
	r.set("bench.trace_overhead_share", share(float64(tracedWall), float64(untracedWall))-1)
	r.set("bench.trace_unattributed_share", unattributed)
	writeTrace(r, set, "solves")

	// The heavy cells: only their backstop stops are reported.
	heavy, err := generateRoundRobin(heavyCells, cfg.seed, len(heavyCells))
	if err != nil {
		return err
	}
	hrp := &replayer{t: newTraceSet().tracer()}
	for _, in := range heavy {
		lib := solveChecked(ctx, in)
		r.op(lib.err)
		got, err := hrp.solve(ctx, in)
		if err == nil && lib.err == nil && !sameAnswer(got, lib.ans) {
			drift++
			r.note("replay of heavy %s differs from the library solve: makespan %v vs %v", in.name, got.makespan, lib.ans.makespan)
		}
		r.note("heavy %s: library solve %.1f ms", in.name, ms(lib.dur))
	}
	r.set("oracle.wallclock_stops", float64(rp.n.wallclockStops+hrp.n.wallclockStops))
	r.note("oracle.wallclock_stops: %d in the replayed mix, %d in %d heavy solves", rp.n.wallclockStops, hrp.n.wallclockStops, len(heavy))
	r.set("core.answer_drift", float64(drift))
	r.set("core.resolve_mismatch", 0)

	// No queue, adaptive request or repair on this path.
	for _, name := range []string{"server.coalesced_share", "batch.rejected_share",
		"plan.degraded_share", "placer.repair_accept_share"} {
		r.set(name, 0)
	}

	// What the server, wire, plan and delta layers would cost on these
	// inputs: a few of them solved through a server without its cache,
	// codec times on their request bodies, planner decisions on their
	// shapes, and a resize delta applied to each.
	if err := serverOverhead(r, pool[:min(len(pool), 2*len(oneshotCells))]); err != nil {
		return err
	}
	r.set("sched.delta_apply_us", deltaApplyUS(pool[:min(len(pool), 200)]))
	reqs := make([]any, 0, len(ops))
	for _, s := range ops[:min(len(ops), 200)] {
		reqs = append(reqs, &wire.SolveRequest{Instance: s.in.in, Spec: &wire.SolveSpec{Eps: s.in.eps, Family: s.in.fam.Name()}})
	}
	if err := measureWire(r, reqs, func() any { return new(wire.SolveRequest) }); err != nil {
		return err
	}
	model := plan.NewModel()
	for _, s := range ops[:min(len(ops), 200)] {
		if s.err != nil {
			continue
		}
		model.Observe(plan.Key{Family: s.in.fam.Name(), Size: plan.SizeClass(len(s.in.in.Jobs)), Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(s.in.eps), Backend: "bnb", Workers: 1}, s.dur)
	}
	r.set("plan.decide_us", timeDecide(model, pool[:min(len(pool), 200)]))
	return nil
}

// serverOverhead solves ins once each through an in-process server with
// its cache bypassed and sets the server.outside_solve metrics: client
// latency minus the solve time the server reports.
func serverOverhead(r *run, ins []*input) error {
	g := newRig()
	defer g.close()
	var outside []float64
	for _, in := range ins {
		body, err := encode(&wire.SolveRequest{Instance: in.in, Spec: &wire.SolveSpec{Eps: in.eps, Family: in.fam.Name(), NoCache: true}})
		if err != nil {
			return err
		}
		start := time.Now()
		status, resp, err := g.post(context.Background(), "/v1/solve", body)
		d := time.Since(start)
		var res *wire.SolveResult
		if err == nil {
			res, err = solveResponse(in, status, resp)
		}
		r.op(err)
		if err == nil {
			outside = append(outside, ms(d)-float64(res.ElapsedUS)/1000)
		}
	}
	r.set("server.outside_solve_p50_ms", quantile(outside, 0.5))
	r.set("server.outside_solve_p99_ms", quantile(outside, 0.99))
	r.note("server.outside_solve over %d uncached solves", len(outside))
	return nil
}

// deltaApplyUS returns the median time to apply a resize delta touching
// every tenth job (sizes up 5%) to each of ins.
func deltaApplyUS(ins []*input) float64 {
	var ds []float64
	for _, in := range ins {
		var d sched.Delta
		for j := 0; j < len(in.in.Jobs); j += 10 {
			job := in.in.Jobs[j]
			d.Resize = append(d.Resize, sched.Resize{ID: job.ID, Size: job.Size * 1.05})
		}
		start := time.Now()
		_, _, err := d.Apply(in.in)
		if err == nil {
			ds = append(ds, us(time.Since(start)))
		}
	}
	return median(ds)
}

// noteSlowest notes up to k of the slowest solves of a pass that took
// over 100 ms: where its tail comes from.
func noteSlowest(r *run, ops []solved, k int) {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ops[idx[a]].dur > ops[idx[b]].dur })
	for _, i := range idx[:min(k, len(idx))] {
		if ops[i].dur < 100*time.Millisecond {
			break
		}
		r.note("slow solve: %s %.1f ms", ops[i].name, ms(ops[i].dur))
	}
}

// reportCore sets the core per-layer metrics from library solve
// statistics.
func reportCore(r *run, results []bagsched.Stats) {
	var guesses, failed, runs, misses, fallbacks float64
	for _, st := range results {
		guesses += float64(st.Guesses)
		failed += float64(st.FailedGuesses)
		runs += float64(st.PipelineRuns)
		misses += float64(st.CacheMisses)
		if st.Fallback {
			fallbacks++
		}
	}
	n := float64(len(results))
	r.set("core.guesses_per_op", share(guesses, n))
	r.set("core.failed_guesses_per_op", share(failed, n))
	r.set("core.pipeline_runs_per_op", share(runs, n))
	r.set("core.useful_run_ratio", share(misses, runs))
	r.set("core.fallback_share", share(fallbacks, n))
	r.note("core.useful_run_ratio base: %.0f memo misses of %.0f pipeline runs over %.0f solves", misses, runs, n)
}

// timeDecide returns the median time of one planner decision for the
// shapes of ins under a loose deadline.
func timeDecide(model *plan.Model, ins []*input) float64 {
	var ds []float64
	for _, in := range ins {
		req := plan.Request{Family: in.fam.Name(), Jobs: len(in.in.Jobs), Machines: in.in.Machines,
			Eps: in.eps, Backend: "bnb", Workers: 1, Budget: 10 * time.Second}
		start := time.Now()
		_, _ = model.Decide(req) // only the decision time is measured
		ds = append(ds, us(time.Since(start)))
	}
	return median(ds)
}
