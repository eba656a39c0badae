package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	bagsched "repro"
	"repro/internal/memo"
	"repro/internal/server"
	"repro/internal/wire"
)

// rig is an in-process server behind a loopback listener and a client
// with one keep-alive connection to it: the HTTP workloads send one
// request at a time.
type rig struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func newRig() *rig {
	srv := server.New(server.Config{QueueDepth: -1})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return &rig{srv: srv, ts: ts, client: client}
}

// close stops the listener and the client's connections.
func (g *rig) close() {
	g.client.CloseIdleConnections()
	g.ts.Close()
}

// post sends body to path and returns the status and response body.
func (g *rig) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serverStats reads the server section of GET /v1/stats.
func (g *rig) serverStats() (map[string]float64, error) {
	resp, err := g.client.Get(g.ts.URL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var payload struct {
		Server map[string]float64 `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return payload.Server, nil
}

// encode renders v with the wire codec.
func encode(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := wire.Encode(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// solveResponse decodes and checks a /v1/solve answer for in.
func solveResponse(in *input, status int, body []byte) (*wire.SolveResult, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", in.name, status, bytes.TrimSpace(body))
	}
	var res wire.SolveResult
	if err := wire.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", in.name, err)
	}
	a := answer{machine: res.Assignment, makespan: res.Makespan, lower: res.LowerBound, bound: res.Quality.Bound}
	if err := checkAnswer(in.in, in.fam, a); err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	return &res, nil
}

// servePool is the serve_hot instance pool size; zipfS its Zipf skew.
// servePeriod paces the client: a request starts servePeriod after the
// previous one started, or when it was answered if that is later. Sent
// back to back (about 1000 req/s), the server's small heap is collected
// about every 10 ms, the collections overlap several percent of the
// requests, and the p99 sat at the edge of that group, jumping between
// about 1.9 and 3.1 ms from run to run.
const (
	servePool   = 40
	zipfS       = 1.2
	servePeriod = 10 * time.Millisecond
)

// hotRig is a warmed serve_hot server with the pool's request bodies.
type hotRig struct {
	*rig
	pool     []*input
	plain    [][]byte // /v1/solve bodies, one per pool instance
	adaptive [][]byte // the same with adaptive:true and a loose deadline
	// quality is each pool instance's quality report to the plain
	// request. An adaptive answer degraded by the planner differs from
	// it; quality.degraded alone also marks a plain solve that fell back
	// to bag-LPT.
	quality []wire.Quality
}

// newHotRig starts a server and solves every pool instance through it
// once, plain and adaptive, so the measured traffic hits the cache.
func newHotRig(pool []*input) (*hotRig, error) {
	h := &hotRig{rig: newRig(), pool: pool}
	for _, in := range pool {
		spec := wire.SolveSpec{Eps: in.eps}
		plain, err := encode(&wire.SolveRequest{Instance: in.in, Spec: &spec})
		if err != nil {
			return nil, err
		}
		spec.Adaptive, spec.DeadlineMS, spec.Backend = true, 10000, "bnb"
		adaptive, err := encode(&wire.SolveRequest{Instance: in.in, Spec: &spec})
		if err != nil {
			return nil, err
		}
		h.plain = append(h.plain, plain)
		h.adaptive = append(h.adaptive, adaptive)
		for k, body := range [][]byte{plain, adaptive} {
			status, resp, err := h.post(context.Background(), "/v1/solve", body)
			var res *wire.SolveResult
			if err == nil {
				res, err = solveResponse(in, status, resp)
			}
			if err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if k == 0 {
				h.quality = append(h.quality, res.Quality)
			}
		}
	}
	return h, nil
}

// sendPlan is the serve_hot request sequence: Zipf-distributed pool
// indices, drawn as needed; every fourth request is adaptive.
type sendPlan struct {
	z   *rand.Zipf
	idx []int
}

func newPlan(seed int64, poolSize int) *sendPlan {
	return &sendPlan{z: rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(poolSize-1))}
}

// at returns the pool index of request i and whether it is adaptive.
func (p *sendPlan) at(i int) (int, bool) {
	for len(p.idx) <= i {
		p.idx = append(p.idx, int(p.z.Uint64()))
	}
	return p.idx[i], i%4 == 3
}

// sent is the outcome of one serve_hot request.
type sent struct {
	idx         int
	adaptive    bool
	start, done time.Time
	res         *wire.SolveResult
	ratio       float64 // makespan / lower bound
	bytes       int
	err         error
}

// loop sends the plan's requests one at a time until stop, or exactly
// limit requests when limit is positive, checking each answer before
// the next request. Unless keep is set, only the figures of each answer
// are kept. t, when non-nil, gets one span tree per request.
func (h *hotRig) loop(ctx context.Context, p *sendPlan, stop time.Time, limit int, keep bool, t *tracer) []sent {
	var out []sent
	for i := 0; limit > 0 && i < limit || limit <= 0 && time.Now().Before(stop); i++ {
		if i > 0 {
			time.Sleep(time.Until(out[i-1].start.Add(servePeriod)))
		}
		idx, adaptive := p.at(i)
		body := h.plain[idx]
		if adaptive {
			body = h.adaptive[idx]
		}
		s := sent{idx: idx, adaptive: adaptive, bytes: len(body)}
		var root, hs int
		if t != nil {
			root = t.beginOp("request")
			hs = t.begin("http")
		}
		s.start = time.Now()
		status, resp, err := h.post(ctx, "/v1/solve", body)
		s.done = time.Now()
		if t != nil {
			t.end(hs)
		}
		if err == nil {
			ds := -1
			if t != nil {
				ds = t.begin("client.decode_check")
			}
			s.res, err = solveResponse(h.pool[idx], status, resp)
			if t != nil {
				t.end(ds)
				if s.res != nil {
					// The server's own solve time sits inside the HTTP span.
					end := t.spans[hs].End
					t.addUnder(hs, "server.solve", end-s.res.ElapsedUS*1000, end)
				}
			}
		}
		if t != nil {
			t.end(root)
		}
		s.err = err
		if s.res != nil {
			s.ratio = s.res.Makespan / s.res.LowerBound
			if !keep {
				s.res = nil
			}
		}
		out = append(out, s)
	}
	return out
}

func runServeHot(cfg config, r *run) error {
	var h *hotRig
	if err := timeSetup(r, 3, func() error {
		if h != nil {
			h.close()
		}
		pool, err := generateRoundRobin(serveCells, cfg.seed, servePool)
		if err != nil {
			return err
		}
		h, err = newHotRig(pool)
		return err
	}); err != nil {
		return err
	}
	defer h.close()
	ctx := context.Background()
	if cfg.trace {
		return serveTraced(cfg, r, h)
	}
	rss := startRSS()
	out := h.loop(ctx, newPlan(cfg.seed, len(h.pool)), deadline(cfg), 0, false, nil)
	if err := rss.finish(r); err != nil {
		return err
	}
	lat := latencies{limit: latencyLimit["serve_hot"]}
	// makespan_ratio weighs each answered pool instance once: weighting
	// by request count would make it depend on which instances the Zipf
	// draw happened to make hot.
	ratio := make(map[int]float64)
	for _, s := range out {
		r.op(s.err)
		lat.add(s.done.Sub(s.start), s.done.Sub(out[0].start), s.err == nil)
		if s.err == nil {
			ratio[s.idx] = s.ratio
		}
	}
	lat.report(r, out[len(out)-1].done.Sub(out[0].start))
	var ratios []float64
	for _, v := range ratio {
		ratios = append(ratios, v)
	}
	r.set("makespan_ratio", geomean(ratios))
	return nil
}

// serveTraced measures the per-layer metrics of serve_hot: an untraced
// pass over half the time budget (server, memo, wire and plan
// counters), the same request sequence traced on the client, and the
// staged replay of the pool's cold solves.
func serveTraced(cfg config, r *run, h *hotRig) error {
	ctx := context.Background()
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	cs0 := h.srv.Cache().Stats()
	ss0, err := h.serverStats()
	if err != nil {
		return err
	}
	m0 := readMem()
	out := h.loop(ctx, newPlan(cfg.seed, len(h.pool)), time.Now().Add(half), 0, true, nil)
	m1 := readMem()
	cs1 := h.srv.Cache().Stats()
	ss1, err := h.serverStats()
	if err != nil {
		return err
	}
	reportRuntime(r, m0, m1, len(out))

	var outside, lags, lat []float64
	var adaptive, degraded, bytesSent int
	var plannerUS []float64
	for i, s := range out {
		r.op(s.err)
		if i > 0 {
			due := out[i-1].start.Add(servePeriod)
			if out[i-1].done.After(due) {
				due = out[i-1].done
			}
			lags = append(lags, ms(s.start.Sub(due)))
		}
		lat = append(lat, ms(s.done.Sub(s.start)))
		bytesSent += s.bytes
		if s.err != nil {
			continue
		}
		outside = append(outside, ms(s.done.Sub(s.start))-float64(s.res.ElapsedUS)/1000)
		if s.adaptive {
			adaptive++
			plannerUS = append(plannerUS, float64(s.res.Quality.PlannerUS))
			q, plain := s.res.Quality, h.quality[s.idx]
			if q.Rung != plain.Rung || q.EpsUsed != plain.EpsUsed {
				degraded++
			}
		}
	}
	r.set("bench.generator_lag_p99_ms", quantile(lags, 0.99))
	r.set("server.outside_solve_p50_ms", quantile(outside, 0.5))
	r.set("server.outside_solve_p99_ms", quantile(outside, 0.99))
	reportServer(r, ss0, ss1)
	reportMemo(r, cs0, cs1)
	r.set("wire.request_bytes", share(float64(bytesSent), float64(len(out))))
	r.set("plan.degraded_share", share(float64(degraded), float64(adaptive)))
	r.set("placer.repair_accept_share", 0) // no resolves on this path
	r.set("sched.delta_apply_us", deltaApplyUS(h.pool))
	r.note("plan: %d adaptive requests answered, %d degraded; quality.planner_us median %.0f", adaptive, degraded, median(plannerUS))

	// Codec times on the bodies the server decoded and the answers it
	// encoded.
	reqs := make([]any, 0, len(h.pool))
	for _, in := range h.pool {
		reqs = append(reqs, &wire.SolveRequest{Instance: in.in, Spec: &wire.SolveSpec{Eps: in.eps}})
	}
	if err := measureWire(r, reqs, func() any { return new(wire.SolveRequest) }); err != nil {
		return err
	}
	r.set("plan.decide_us", timeDecide(h.srv.Planner(), h.pool))

	// The same sequence, traced on the client.
	set := newTraceSet()
	traced := h.loop(ctx, newPlan(cfg.seed, len(h.pool)), time.Time{}, len(out), false, set.tracer())
	var tlat []float64
	for _, s := range traced {
		r.op(s.err)
		tlat = append(tlat, ms(s.done.Sub(s.start)))
	}
	st := set.fold("request")
	unattributed := st.report(r, "request")
	r.set("bench.trace_overhead_share", share(sum(tlat), sum(lat))-1)
	r.set("bench.trace_unattributed_share", unattributed)
	writeTrace(r, set, "requests")

	// What a miss costs: the pool's cold solves, replayed with spans.
	replayInputs(r, h.pool, nil)
	return nil
}

// replayInputs solves ins with the library and through the traced
// replay, compares the two, and reports the core, stage and oracle
// metrics of those solves. want, when non-nil, holds answers the
// replays must also equal (resolve answers); mismatches count in
// core.resolve_mismatch.
func replayInputs(r *run, ins []*input, want []answer) {
	ctx := context.Background()
	set := newTraceSet()
	rp := &replayer{t: set.tracer()}
	var results []bagsched.Stats
	drift, mismatch := 0, 0
	for i, in := range ins {
		lib := solveChecked(ctx, in)
		r.op(lib.err)
		if lib.err != nil {
			continue
		}
		results = append(results, lib.stats)
		got, err := rp.solve(ctx, in)
		if err != nil {
			r.op(fmt.Errorf("replay %s: %w", in.name, err))
			continue
		}
		if !sameAnswer(got, lib.ans) {
			drift++
			r.note("replay of %s differs from the library solve: makespan %v vs %v", in.name, got.makespan, lib.ans.makespan)
		}
		if want != nil && !sameAnswer(want[i], lib.ans) {
			mismatch++
			r.note("resolve answer for %s differs from a from-scratch solve: makespan %v vs %v", in.name, want[i].makespan, lib.ans.makespan)
		}
	}
	st := set.fold("op")
	st.report(r, "op")
	reportStages(r, st, rp.n)
	writeTrace(r, set, "solves")
	reportCore(r, results)
	r.set("core.answer_drift", float64(drift))
	r.set("core.resolve_mismatch", float64(mismatch))
}

// reportMemo sets the memo per-layer metrics from two snapshots of a
// shared cache.
func reportMemo(r *run, before, after memo.Stats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.set("memo.hit_ratio", share(float64(hits), float64(hits+misses)))
	r.set("memo.waits", float64(after.Waits-before.Waits))
	r.set("memo.evictions", float64(after.Evictions-before.Evictions))
	r.set("memo.cost_mb", float64(after.Cost)/(1<<20))
	r.note("memo.hit_ratio base: %d hits of %d lookups on the shared cache (%d entries)", hits, hits+misses, after.Entries)
}

// reportServer sets the server and queue shares from two /v1/stats
// snapshots.
func reportServer(r *run, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	r.set("server.coalesced_share", share(d("coalesced"), d("solves")))
	r.set("batch.rejected_share", share(d("rejected"), d("requests")))
	r.note("server: %.0f requests, %.0f solves, %.0f coalesced, %.0f rejected", d("requests"), d("solves"), d("coalesced"), d("rejected"))
}

// measureWire times the wire codec on the bodies of reqs: decoding each
// body into a fresh value from newDst, and encoding each value.
func measureWire(r *run, reqs []any, newDst func() any) error {
	var enc, dec []float64
	for _, v := range reqs {
		start := time.Now()
		body, err := encode(v)
		enc = append(enc, us(time.Since(start)))
		if err != nil {
			return err
		}
		dst := newDst()
		start = time.Now()
		err = wire.Unmarshal(body, dst)
		dec = append(dec, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("decode own body: %w", err)
		}
	}
	r.set("wire.encode_us", median(enc))
	r.set("wire.decode_us", median(dec))
	if _, ok := r.values["wire.request_bytes"]; !ok {
		var total int
		for _, v := range reqs {
			b, _ := encode(v) // encoded once above without error
			total += len(b)
		}
		r.set("wire.request_bytes", share(float64(total), float64(len(reqs))))
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
