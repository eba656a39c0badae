package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	// churnSteps is the number of deltas per trace.
	churnSteps = 24
	// churnReady is how many traces the set-up generates and
	// base-solves; later traces are prepared off the measured clock.
	churnReady = 12
)

// chain is one churn trace being replayed: the current instance and
// the prior answer the next resolve request carries.
type chain struct {
	name   string
	eps    float64
	repair bool // low-churn traces ask for placement repair
	steps  []sched.Delta
	step   int
	cur    *sched.Instance
	prior  *wire.SolveResult
}

// churnRig is a server plus the traces the closed loop walks through.
type churnRig struct {
	*rig
	seed  int64
	next  int      // index of the next trace to prepare
	ready []*chain // prepared traces not yet started
	ch    *chain   // the trace in progress
}

// newChurnRig starts a server and prepares the first churnReady traces.
func newChurnRig(ctx context.Context, seed int64) (*churnRig, error) {
	c := &churnRig{rig: newRig(), seed: seed}
	for i := 0; i < churnReady; i++ {
		ch, err := c.prepare(ctx)
		if err != nil {
			c.close()
			return nil, err
		}
		c.ready = append(c.ready, ch)
	}
	return c, nil
}

// prepare generates the next trace and solves its base through the
// server. One trace in three is low-churn (pure resizes, sent with
// repair:true), the others are structural (sent without repair); each
// base cell gets all three in turn. Repaired steps take about a fifth
// of a searched step, so with half the traces low-churn the median
// step would fall in the gap between the two and swing from run to
// run; at one in three it falls among the searched steps.
func (c *churnRig) prepare(ctx context.Context) (*chain, error) {
	k := c.next
	c.next++
	cl := churnCells[k/3%len(churnCells)]
	structural := k%3 != 0
	spec := workload.ChurnSpec{
		Base:       workload.Spec{Family: cl.gen, Machines: cl.m, Jobs: cl.n, Bags: cl.b, Seed: deriveSeed(c.seed, 1000+k, 0)},
		Steps:      churnSteps,
		Structural: structural,
		Seed:       deriveSeed(c.seed, 2000+k, 0),
	}
	tr, err := workload.GenerateChurn(spec)
	if err != nil {
		return nil, fmt.Errorf("churn trace %d: %w", k, err)
	}
	base := &input{name: fmt.Sprintf("churn%d/%s/structural=%v", k, spec.Base.Name(), structural), in: tr.Base, eps: cl.eps, fam: bags}
	body, err := encode(&wire.SolveRequest{Instance: base.in, Spec: &wire.SolveSpec{Eps: base.eps}})
	if err != nil {
		return nil, err
	}
	status, resp, err := c.post(ctx, "/v1/solve", body)
	var res *wire.SolveResult
	if err == nil {
		res, err = solveResponse(base, status, resp)
	}
	if err != nil {
		return nil, fmt.Errorf("churn base: %w", err)
	}
	return &chain{name: base.name, eps: base.eps, repair: !structural, steps: tr.Steps, cur: tr.Base, prior: res}, nil
}

// stepOut is the outcome of one resolve request.
type stepOut struct {
	name     string
	dur      time.Duration // HTTP round trip
	wall     time.Duration // the whole step: encode, round trip, apply, check
	err      error
	res      *wire.ResolveResult
	post     *sched.Instance
	eps      float64
	repair   bool // repair was requested
	repaired bool // the placement-repair fast path answered
	applyDur time.Duration
	ratio    float64       // makespan / lower bound
	at       time.Duration // measured time when the step ended
	req      *wire.ResolveRequest
	bytes    int
}

// loop runs resolve steps until budget of measured time is spent (or
// maxOps steps ran, when positive). Preparing a new trace — generation
// and the cold base solve — happens off the measured clock. Unless keep
// is set, each step keeps only its timings and makespan ratio.
func (c *churnRig) loop(ctx context.Context, budget time.Duration, maxOps int, keep bool, t *tracer) ([]stepOut, time.Duration, error) {
	var out []stepOut
	var measured time.Duration
	wallStop := time.Now().Add(4 * budget)
	for measured < budget && (maxOps <= 0 || len(out) < maxOps) && time.Now().Before(wallStop) {
		if c.ch == nil || c.ch.step == len(c.ch.steps) {
			if len(c.ready) > 0 {
				c.ch, c.ready = c.ready[0], c.ready[1:]
			} else {
				ch, err := c.prepare(ctx)
				if err != nil {
					return nil, 0, err
				}
				c.ch = ch
			}
		}
		o := c.step(ctx, c.ch, t)
		measured += o.wall
		o.at = measured
		if !keep {
			// Only the figures survive: a long pass must not pin every
			// instance, request and answer in memory.
			o.req, o.post, o.res = nil, nil, nil
		}
		out = append(out, o)
	}
	return out, measured, nil
}

// step sends the chain's next delta as a resolve request carrying the
// prior answer, checks the answer against the post-delta instance, and
// advances the chain.
func (c *churnRig) step(ctx context.Context, ch *chain, t *tracer) stepOut {
	start := time.Now()
	d := ch.steps[ch.step]
	o := stepOut{name: fmt.Sprintf("%s/step%d", ch.name, ch.step), eps: ch.eps, repair: ch.repair}
	span := func(name string) func() {
		if t == nil {
			return func() {}
		}
		id := t.begin(name)
		return func() { t.end(id) }
	}
	if t != nil {
		root := t.beginOp("resolve")
		defer t.end(root)
	}
	o.req = &wire.ResolveRequest{
		Instance:        ch.cur,
		Delta:           d,
		PriorMakespan:   ch.prior.Makespan,
		PriorGuess:      ch.prior.FinalGuess,
		PriorAssignment: ch.prior.Assignment,
		Repair:          ch.repair,
		Spec:            &wire.SolveSpec{Eps: ch.eps},
	}
	done := span("wire.encode")
	body, err := encode(o.req)
	done()
	o.bytes = len(body)
	ch.step++
	if err != nil {
		o.err = err
		return o
	}

	hs := -1
	if t != nil {
		hs = t.begin("http")
	}
	sent := time.Now()
	status, resp, err := c.post(ctx, "/v1/resolve", body)
	o.dur = time.Since(sent)
	if t != nil {
		t.end(hs)
	}

	done = span("sched.delta_apply")
	applyStart := time.Now()
	post, _, aerr := d.Apply(ch.cur)
	o.applyDur = time.Since(applyStart)
	done()
	if err == nil {
		err = aerr
	}
	if err == nil {
		done = span("client.decode_check")
		o.res, err = resolveResponse(o.name, post, ch.eps, status, resp)
		done()
	}
	if err != nil {
		o.err = err
		// The chain cannot continue from a failed answer; end it.
		ch.step = len(ch.steps)
		o.wall = time.Since(start)
		return o
	}
	if t != nil {
		end := t.spans[hs].End
		t.addUnder(hs, "server.solve", end-o.res.ElapsedUS*1000, end)
	}
	o.post = post
	o.ratio = o.res.Makespan / o.res.LowerBound
	o.repaired = o.res.Repaired
	ch.cur = post
	ch.prior = &o.res.SolveResult
	o.wall = time.Since(start)
	return o
}

// resolveResponse decodes and checks a /v1/resolve answer for post.
func resolveResponse(name string, post *sched.Instance, eps float64, status int, body []byte) (*wire.ResolveResult, error) {
	in := &input{name: name, in: post, eps: eps, fam: bags}
	if status != 200 {
		return nil, fmt.Errorf("%s: status %d: %s", name, status, body)
	}
	var res wire.ResolveResult
	if err := wire.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", name, err)
	}
	a := answer{machine: res.Assignment, makespan: res.Makespan, lower: res.LowerBound, bound: res.Quality.Bound}
	if err := checkAnswer(in.in, in.fam, a); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &res, nil
}

// setupChurn builds the churn rig reps times, timing it as setup_s.
func setupChurn(cfg config, r *run) (*churnRig, error) {
	var c *churnRig
	err := timeSetup(r, 3, func() (err error) {
		if c != nil {
			c.close()
		}
		c, err = newChurnRig(context.Background(), cfg.seed)
		return err
	})
	return c, err
}

func runChurn(cfg config, r *run) error {
	c, err := setupChurn(cfg, r)
	if err != nil {
		return err
	}
	defer c.close()
	if cfg.trace {
		return churnTraced(cfg, r, c)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rss := startRSS()
	out, measured, err := c.loop(context.Background(), budget, 0, false, nil)
	if rerr := rss.finish(r); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	lat := latencies{limit: latencyLimit["churn"]}
	var ratios []float64
	kinds := map[string][]float64{}
	for _, o := range out {
		r.op(o.err)
		lat.add(o.dur, o.at, o.err == nil)
		if o.err == nil {
			ratios = append(ratios, o.ratio)
			kind := "structural"
			if o.repair {
				kind = fmt.Sprintf("repair requested, repaired=%v", o.repaired)
			}
			kinds[kind] = append(kinds[kind], ms(o.dur))
		}
	}
	lat.report(r, measured)
	r.set("makespan_ratio", geomean(ratios))
	for kind, xs := range kinds {
		r.note("%s steps: %d, p50 %.3g ms, p90 %.3g ms", kind, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	return nil
}

// churnTraced measures the per-layer metrics of churn: an untraced
// closed loop over half the time budget, the same steps traced on a
// freshly set-up server, and from-scratch solves (library and staged
// replay) of the post-delta instances of non-repaired steps, which the
// resolve answers must equal.
func churnTraced(cfg config, r *run, c *churnRig) error {
	ctx := context.Background()
	budget := time.Duration(cfg.seconds * float64(time.Second) / 2)
	cs0 := c.srv.Cache().Stats()
	ss0, err := c.serverStats()
	if err != nil {
		return err
	}
	m0 := readMem()
	out, measured, err := c.loop(ctx, budget, 0, true, nil)
	if err != nil {
		return err
	}
	m1 := readMem()
	cs1 := c.srv.Cache().Stats()
	ss1, err := c.serverStats()
	if err != nil {
		return err
	}
	reportRuntime(r, m0, m1, len(out))
	reportServer(r, ss0, ss1)
	reportMemo(r, cs0, cs1)

	var outside, gaps, apply []float64
	var asked, repaired, bytesSent int
	var reqs []any
	var scratchIns []*input
	var want []answer
	for _, o := range out {
		r.op(o.err)
		bytesSent += o.bytes
		gaps = append(gaps, ms(o.wall-o.dur))
		if len(reqs) < 200 {
			reqs = append(reqs, o.req)
		}
		if o.err != nil {
			continue
		}
		outside = append(outside, ms(o.dur)-float64(o.res.ElapsedUS)/1000)
		apply = append(apply, us(o.applyDur))
		if o.repair {
			asked++
			if o.res.Repaired {
				repaired++
			}
		}
		if !o.res.Repaired && len(scratchIns) < 60 {
			scratchIns = append(scratchIns, &input{name: o.name, in: o.post, eps: o.eps, fam: bags})
			want = append(want, answer{machine: o.res.Assignment, makespan: o.res.Makespan, lower: o.res.LowerBound})
		}
	}
	r.set("bench.generator_lag_p99_ms", quantile(gaps, 0.99))
	r.set("server.outside_solve_p50_ms", quantile(outside, 0.5))
	r.set("server.outside_solve_p99_ms", quantile(outside, 0.99))
	r.set("placer.repair_accept_share", share(float64(repaired), float64(asked)))
	r.note("placer.repair_accept_share base: %d repaired of %d repair requests", repaired, asked)
	r.set("sched.delta_apply_us", median(apply))
	r.set("wire.request_bytes", share(float64(bytesSent), float64(len(out))))
	if err := measureWire(r, reqs, func() any { return new(wire.ResolveRequest) }); err != nil {
		return err
	}
	r.set("plan.degraded_share", 0) // churn sends no adaptive requests
	r.set("plan.decide_us", timeDecide(c.srv.Planner(), scratchIns))

	// The same steps, traced, on a server set up the same way.
	fresh, err := newChurnRig(ctx, cfg.seed)
	if err != nil {
		return err
	}
	defer fresh.close()
	set := newTraceSet()
	tout, tmeasured, err := fresh.loop(ctx, 4*budget, len(out), false, set.tracer())
	if err != nil {
		return err
	}
	for _, o := range tout {
		r.op(o.err)
	}
	st := set.fold("resolve")
	unattributed := st.report(r, "resolve")
	r.set("bench.trace_overhead_share", share(float64(tmeasured), float64(measured))-1)
	r.set("bench.trace_unattributed_share", unattributed)
	writeTrace(r, set, "requests")

	replayInputs(r, scratchIns, want)
	return nil
}
