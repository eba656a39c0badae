package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the shape of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelftest checks that BENCHMARK.json and this program agree, runs
// every workload briefly in both modes checking that each listed metric
// is emitted with its unit, and checks that a corrupted schedule counts
// as a failed operation.
func runSelftest() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("selftest: BENCHMARK.json: %w", err)
	}
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string, len(list))
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	e2e, layer := units(bf.EndToEnd), units(bf.PerLayer)
	compare := func(kind string, listed map[string]string, defs []metricDef) {
		if len(listed) != len(defs) {
			fail("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(defs))
		}
		for _, d := range defs {
			if u, ok := listed[d.name]; !ok || u != d.unit {
				fail("%s: %s [%s] not listed with that unit in BENCHMARK.json (listed: %q)", kind, d.name, d.unit, u)
			}
		}
	}
	compare("end_to_end", e2e, endToEnd)
	compare("per_layer", layer, perLayer)

	var names []string
	whys := ""
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		whys += w.Why + "\n"
		if _, ok := workloads[w.Name]; !ok {
			fail("workload %s is listed but not implemented", w.Name)
		}
		if w.Name == "serve_hot" {
			limit := fmt.Sprintf("%d ms", latencyLimit["serve_hot"].Milliseconds())
			if !strings.Contains(w.Why, limit) {
				fail("serve_hot why must pin the latency limit %s: %q", limit, w.Why)
			}
		}
	}
	if len(names) != len(workloads) {
		fail("BENCHMARK.json lists workloads %v, the program implements %d", names, len(workloads))
	}
	if !strings.Contains(whys, fmt.Sprintf("held-out seed %d", heldOutSeed)) {
		fail("no workload why names the held-out seed %d", heldOutSeed)
	}

	if err := corruptionCaught(); err != nil {
		fail("corrupted schedule: %v", err)
	}

	sort.Strings(names)
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.6, trace: traced}
			want := e2e
			if traced {
				want = layer
			}
			res, err := execute(cfg)
			if err != nil {
				fail("%s trace=%v: %v", w, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				fail("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				fail("%s trace=%v: %d metrics emitted, %d listed", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					fail("%s trace=%v: metric %s [%s] missing or with unit %q", w, traced, name, unit, m.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				fail("%s trace=%v: result does not encode: %v", w, traced, err)
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("selftest:", p)
		}
		return fmt.Errorf("selftest: %d problems", len(problems))
	}
	fmt.Println("selftest: ok")
	return nil
}

// corruptionCaught solves one instance, corrupts the answer in several
// ways, and checks that every corruption is counted as a failed
// operation, for library answers and for wire answers alike.
func corruptionCaught() error {
	ins, err := generateRoundRobin(serveCells[:1], 1, 1)
	if err != nil {
		return err
	}
	in := ins[0]
	s := solveChecked(context.Background(), in)
	if s.err != nil {
		return fmt.Errorf("clean solve failed its checks: %w", s.err)
	}
	// Two jobs of one bag, to put on one machine.
	byBag := in.in.JobsByBag()
	var mates []int
	for _, js := range byBag {
		if len(js) >= 2 {
			mates = js[:2]
			break
		}
	}
	if mates == nil {
		return errors.New("test instance has no bag with two jobs")
	}
	corrupt := map[string]func(a *answer){
		"bag conflict": func(a *answer) { a.machine[mates[1]] = a.machine[mates[0]] },
		"job dropped":  func(a *answer) { a.machine = a.machine[:len(a.machine)-1] },
		"bad machine":  func(a *answer) { a.machine[0] = in.in.Machines },
		"makespan":     func(a *answer) { a.makespan *= 0.9 },
		"lower bound":  func(a *answer) { a.lower *= 1.5 },
		"no bound":     func(a *answer) { a.bound = 0 },
	}
	r := newRun(config{workload: "selftest"})
	for name, fn := range corrupt {
		a := s.ans
		a.machine = append([]int(nil), s.ans.machine...)
		fn(&a)
		before := r.failed
		r.op(checkAnswer(in.in, in.fam, a))
		if r.failed != before+1 {
			return fmt.Errorf("%s: the check passed", name)
		}
	}

	// The same through the wire path: a corrupted response body.
	h, err := newHotRig(ins)
	if err != nil {
		return err
	}
	defer h.close()
	status, body, err := h.post(context.Background(), "/v1/solve", h.plain[0])
	if err != nil {
		return err
	}
	if _, err := solveResponse(in, status, body); err != nil {
		return fmt.Errorf("clean wire answer failed its checks: %w", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return err
	}
	asg := raw["assignment"].([]any)
	asg[mates[1]] = asg[mates[0]]
	bad, err := json.Marshal(raw)
	if err != nil {
		return err
	}
	_, werr := solveResponse(in, status, bad)
	before := r.failed
	r.op(werr)
	if r.failed != before+1 {
		return errors.New("corrupted wire answer passed its checks")
	}
	return nil
}
