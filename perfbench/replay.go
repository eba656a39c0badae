package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/family"
	"repro/internal/milp"
	"repro/internal/numeric"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/placer"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/transform"
)

// The per-guess limits and priority-cap ladder of the pipeline under
// default options, mirrored so the replay decides every guess the way
// the engine does. A divergence shows as core.answer_drift.
const (
	replayMaxNodes     = 500
	replayLadderBudget = 150
	replayTimeLimit    = 2 * time.Second
)

var replayCaps = []int{0, 4, 2, 1}

// Span names of the pipeline stages, in pipeline order.
var stageSpans = []string{
	"round.scale", "classify", "transform.apply", "pattern.enumerate",
	"cfgmilp.build", "oracle.solve", "placer.place", "transform.lift",
}

// engineStageSpan maps pipeline.StageNames to span names for replays
// that read stage times from an engine's clock.
var engineStageSpan = map[string]string{
	"Scale": "round.scale", "Classify": "classify", "Transform": "transform.apply",
	"Enumerate": "pattern.enumerate", "SolveOracle": "oracle.solve",
	"Place": "placer.place", "Lift": "transform.lift",
}

// replayCounts accumulates the work the replays did.
type replayCounts struct {
	ops            int
	guesses        int
	runs           int // ladder executions (memo misses)
	hits           int
	patterns       int
	enumerations   int
	intVars        int
	builds         int
	nodes          int
	pivots         int
	states         int64
	oracleCalls    int
	wallclockStops int
}

// replayer solves inputs one guess at a time through the stage entry
// points, recording a span around every call.
type replayer struct {
	t     *tracer
	n     replayCounts
	arena scratch.Arena
}

// guessOutcome is a memoized guess decision of one replayed solve.
type guessOutcome struct {
	machine []int
	ok      bool
}

// solve replays the default-options solve of in and returns its answer
// (without a quality bound: the replay decides, it does not grade).
func (rp *replayer) solve(ctx context.Context, in *input) (answer, error) {
	rp.n.ops++
	t := rp.t
	op := t.beginOp("op")
	defer t.end(op)

	prep := t.begin("core.prepare")
	fam := in.fam
	work := fam.Prepare(in.in)
	lb := fam.LowerBound(in.in)
	ubSched, err := fam.Fallback(work)
	t.end(prep)
	if err != nil {
		return answer{}, fmt.Errorf("fallback: %w", err)
	}
	ub := ubSched.Makespan()
	if len(in.in.Jobs) == 0 || ub <= lb {
		return answer{machine: ubSched.Machine, makespan: ub, lower: lb}, nil
	}

	var eval func(ctx context.Context, guess float64) ([]int, bool)
	if fam.Shape() == family.ShapeRelated {
		eval = rp.engineEval(in, work)
	} else {
		eval = rp.stagedEval(in, work)
	}
	commit := func(_ float64, machine []int, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return &sched.Schedule{Inst: work, Machine: machine}
	}
	search := round.SearchGridSeq(ctx, lb, ub, round.GridRatio(in.eps), 0, eval, commit)
	rp.n.guesses += search.Guesses
	if err := ctx.Err(); err != nil {
		return answer{}, err
	}
	if search.Schedule == nil || ub < search.Makespan {
		return answer{machine: ubSched.Machine, makespan: ub, lower: lb}, nil
	}
	return answer{machine: search.Schedule.Machine, makespan: search.Makespan, lower: lb}, nil
}

// stagedEval decides guesses of a bags-shaped family (bags, identical)
// by calling each stage's public entry point.
func (rp *replayer) stagedEval(in *input, work *sched.Instance) func(context.Context, float64) ([]int, bool) {
	memo := make(map[numeric.Key]guessOutcome)
	return func(ctx context.Context, guess float64) ([]int, bool) {
		t := rp.t
		g := t.begin("guess")
		defer t.end(g)
		s := t.begin("round.scale")
		scaled, exps := round.ScaleRound(work, guess, in.eps)
		t.end(s)
		key := numeric.KeyOf(scaled.Machines, exps)
		if o, hit := memo[key]; hit {
			rp.n.hits++
			return append([]int(nil), o.machine...), o.ok
		}
		rp.n.runs++
		machine, err := rp.ladder(ctx, in.eps, work, scaled)
		o := guessOutcome{machine: machine, ok: err == nil}
		memo[key] = o
		return append([]int(nil), o.machine...), o.ok
	}
}

// ladder runs the priority-cap ladder on one scaled instance.
func (rp *replayer) ladder(ctx context.Context, eps float64, work, scaled *sched.Instance) ([]int, error) {
	defer rp.arena.Reset()
	var lastErr error
	for i, bp := range replayCaps {
		budget := replayMaxNodes
		if i < len(replayCaps)-1 {
			budget = replayLadderBudget
		}
		machine, err := rp.rung(ctx, eps, work, scaled, bp, budget)
		if err == nil {
			return machine, nil
		}
		lastErr = err
		if !pipeline.RetryWithSmallerCap(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// rung runs the stages after Scale under one priority cap.
func (rp *replayer) rung(ctx context.Context, eps float64, work, scaled *sched.Instance, bprime, nodes int) ([]int, error) {
	t := rp.t
	r := t.begin("rung")
	defer t.end(r)

	s := t.begin("classify")
	info, err := classify.Classify(scaled, eps, classify.Options{BPrimeOverride: bprime})
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("transform.apply")
	tr := transform.Apply(scaled, info)
	t.end(s)

	s = t.begin("pattern.enumerate")
	sp, err := pattern.Enumerate(ctx, tr.Inst, tr.View, tr.Priority, pattern.Options{})
	t.end(s)
	if err != nil {
		return nil, err
	}
	rp.n.enumerations++
	rp.n.patterns += len(sp.Patterns)

	s = t.begin("cfgmilp.build")
	built, err := cfgmilp.Build(ctx, tr.Inst, tr.View, tr.Priority, sp, cfgmilp.BuildOptions{})
	t.end(s)
	if err != nil {
		return nil, err
	}
	rp.n.builds++
	rp.n.intVars += built.IntegerVars

	lim := oracle.Limits{MILP: milp.Options{MaxNodes: nodes, TimeLimit: replayTimeLimit}, Arena: &rp.arena}
	s = t.begin("oracle.solve")
	plan, ost, err := oracle.For(oracle.Selection{}).Solve(ctx, built, lim)
	t.end(s)
	rp.countOracle(ost, err, nodes)
	if err != nil {
		return nil, err
	}

	s = t.begin("placer.place")
	placed, _, err := placer.Place(placer.Input{
		Inst: tr.Inst, View: tr.View, Prio: tr.Priority, Space: sp, Plan: plan, Arena: &rp.arena,
	})
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("transform.lift")
	lifted, _, err := tr.Lift(placed)
	t.end(s)
	if err != nil {
		return nil, err
	}
	final := &sched.Schedule{Inst: work, Machine: append([]int(nil), lifted.Machine...)}
	if err := final.Validate(); err != nil {
		return nil, err
	}
	return final.Machine, nil
}

// countOracle accounts one oracle call. A branch-and-bound call that
// hit its limit before spending its node budget was stopped by the
// wall-clock backstop.
func (rp *replayer) countOracle(ost oracle.Stats, err error, nodeBudget int) {
	rp.n.oracleCalls++
	rp.n.nodes += ost.Nodes
	rp.n.pivots += ost.Pivots
	rp.n.states += ost.States
	if errors.Is(err, oracle.ErrLimit) && ost.Backend == "bnb" && ost.Nodes < nodeBudget {
		rp.n.wallclockStops++
	}
}

// engineEval decides guesses of a family whose stages have no separate
// public entry points in this shape (related machines): it drives one
// pipeline.Engine guess by guess and turns the engine's per-stage clock
// into spans laid end to end inside the guess span.
func (rp *replayer) engineEval(in *input, work *sched.Instance) func(context.Context, float64) ([]int, bool) {
	eng := pipeline.New(pipeline.Config{Eps: in.eps, Family: in.fam})
	return func(ctx context.Context, guess float64) ([]int, bool) {
		t := rp.t
		g := t.begin("guess")
		before := eng.Metrics()
		pr, err := eng.Run(ctx, work, guess)
		after := eng.Metrics()
		t.end(g)
		at := t.spans[g].Start
		for _, name := range pipeline.StageNames() {
			d := int64(after.StageTime[name] - before.StageTime[name])
			if d <= 0 {
				continue
			}
			t.addUnder(g, engineStageSpan[name], at, at+d)
			at += d
		}
		rp.n.runs += after.Runs - before.Runs
		rp.n.hits += after.CacheHits - before.CacheHits
		if err != nil {
			return nil, false
		}
		if !pr.CacheHit {
			rp.n.oracleCalls++
			rp.n.nodes += pr.OracleStats.Nodes
			rp.n.pivots += pr.OracleStats.Pivots
			rp.n.states += pr.OracleStats.States
			rp.n.intVars += pr.IntegerVars
			rp.n.builds++
			if pr.RelSpace != nil {
				rp.n.patterns += pr.RelSpace.TotalPatterns()
				rp.n.enumerations++
			}
		}
		return append([]int(nil), pr.Final.Machine...), true
	}
}

// reportStages sets the stage and oracle per-layer metrics from the
// replays' self times and counts.
func reportStages(r *run, st selfTimes, n replayCounts) {
	metricOf := map[string]string{
		"round.scale": "round.scale_ms", "classify": "classify.ms",
		"transform.apply": "transform.apply_ms", "pattern.enumerate": "pattern.enumerate_ms",
		"cfgmilp.build": "cfgmilp.build_ms", "oracle.solve": "oracle.solve_ms",
		"placer.place": "placer.place_ms", "transform.lift": "transform.lift_ms",
	}
	for _, name := range stageSpans {
		r.set(metricOf[name], st.perOpMS(name))
	}
	ops := float64(n.ops)
	r.set("pattern.patterns_per_guess", share(float64(n.patterns), float64(n.enumerations)))
	r.set("cfgmilp.integer_vars_per_guess", share(float64(n.intVars), float64(n.builds)))
	r.set("oracle.bnb_nodes_per_op", share(float64(n.nodes), ops))
	r.set("oracle.lp_pivots_per_op", share(float64(n.pivots), ops))
	r.set("oracle.pivots_per_node", share(float64(n.pivots), float64(n.nodes)))
	r.set("oracle.dp_states_per_op", share(float64(n.states), ops))
	r.set("oracle.wallclock_stops", float64(n.wallclockStops))
	r.set("oracle.time_share", share(float64(st.self["oracle.solve"]), float64(st.opTime)))
	r.note("replayed %d solves: %d guesses, %d ladder runs, %d memo hits, %d oracle calls, %d wall-clock stops",
		n.ops, n.guesses, n.runs, n.hits, n.oracleCalls, n.wallclockStops)
	r.note("oracle share of replayed solve time: %.1f%%", 100*share(float64(st.self["oracle.solve"]), float64(st.opTime)))
}
