package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testInstanceAndGuess(t *testing.T) (*sched.Instance, float64) {
	t.Helper()
	inst := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 5, Jobs: 20, Bags: 8, Seed: 37,
	})
	ub, err := greedy.BagLPT(inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst, ub.Makespan()
}

func TestStageNamesOrder(t *testing.T) {
	want := []string{"Scale", "Classify", "Transform", "Enumerate", "SolveOracle", "Place", "Lift"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StageNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The exported list must agree with the stages the engine actually
	// runs.
	if stageScale.Name() != want[0] {
		t.Errorf("scale stage is named %q", stageScale.Name())
	}
	for i, s := range rungStages {
		if s.Name() != want[i+1] {
			t.Errorf("rung stage %d is named %q, want %q", i, s.Name(), want[i+1])
		}
	}
}

func TestEngineMemoHit(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	ctx := context.Background()

	first, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first run reported a cache hit")
	}
	second, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical guess missed the memo")
	}
	if second.Space != first.Space {
		t.Error("cache hit did not reuse the pattern space")
	}
	if second.Guess != guess {
		t.Errorf("cached result has guess %g, want %g", second.Guess, guess)
	}
	if len(second.Final.Machine) != len(first.Final.Machine) {
		t.Fatal("cached schedule has a different length")
	}
	for j := range first.Final.Machine {
		if second.Final.Machine[j] != first.Final.Machine[j] {
			t.Fatalf("cached schedule differs at job %d", j)
		}
	}
	// The final schedule must not alias the memoized one.
	second.Final.Machine[0] = -999
	if first.Final.Machine[0] == -999 {
		t.Error("cached result aliases the memoized machine slice")
	}

	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Runs != 1 {
		t.Errorf("metrics = hits %d misses %d runs %d, want 1/1/1", m.CacheHits, m.CacheMisses, m.Runs)
	}
}

// TestEngineMemoEquivalenceClass checks the point of the memo: two
// *different* guesses whose scaled instances round to the same exponents
// share one pipeline execution.
func TestEngineMemoEquivalenceClass(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	ctx := context.Background()

	first, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	// A hair smaller guess: every size/guess ratio moves by a factor
	// 1+1e-9, far less than a rounding-interval width, so the exponent
	// vector — and with it the signature — is unchanged.
	near, err := e.Run(ctx, in, guess*(1-1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if near.Signature != first.Signature {
		t.Fatalf("signatures differ: %+v vs %+v", near.Signature, first.Signature)
	}
	if !near.CacheHit {
		t.Error("equivalent guess missed the memo")
	}
	if near.Guess == first.Guess {
		t.Error("clone kept the original guess scalar")
	}
}

func TestEngineMemoDisabled(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5, DisableMemo: true})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		pr, err := e.Run(ctx, in, guess)
		if err != nil {
			t.Fatal(err)
		}
		if pr.CacheHit {
			t.Fatal("cache hit with the memo disabled")
		}
	}
	if m := e.Metrics(); m.CacheHits != 0 {
		t.Errorf("metrics report %d hits with the memo disabled", m.CacheHits)
	}
}

// TestEngineMemoizesRejections checks that accept and reject outcomes are
// cached alike: a guess far below the lower bound fails identically,
// without a second pipeline execution.
func TestEngineMemoizesRejections(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Unit, Machines: 2, Jobs: 8, Bags: 4, Seed: 31,
	})
	e := New(Config{Eps: 0.5})
	ctx := context.Background()
	// OPT = 4 (8 unit jobs on 2 machines); guess 1 must be rejected.
	_, err1 := e.Run(ctx, in, 1)
	if err1 == nil {
		t.Fatal("impossible guess accepted")
	}
	_, err2 := e.Run(ctx, in, 1)
	if err2 == nil {
		t.Fatal("impossible guess accepted from cache")
	}
	// The cached rejection is labeled as memoized and wraps the original.
	if !strings.Contains(err2.Error(), err1.Error()) {
		t.Errorf("cached rejection %v does not wrap the original %v", err2, err1)
	}
	if !strings.Contains(err2.Error(), "memoized rejection") {
		t.Errorf("cached rejection %v is not labeled as memoized", err2)
	}
	m := e.Metrics()
	if m.Runs != 1 || m.CacheHits != 1 {
		t.Errorf("metrics = runs %d hits %d, want 1 run and 1 hit", m.Runs, m.CacheHits)
	}
}

// TestEngineCancellationNotMemoized checks that a ctx abort is never
// committed as the guess's outcome.
func TestEngineCancellationNotMemoized(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(canceled, in, guess); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}

	pr, err := e.Run(context.Background(), in, guess)
	if err != nil {
		t.Fatalf("run after canceled run: %v", err)
	}
	if pr.CacheHit {
		t.Error("cancellation outcome was memoized")
	}
	m := e.Metrics()
	if m.CacheHits != 0 {
		t.Errorf("cache hits = %d after a canceled and a fresh run, want 0", m.CacheHits)
	}
	if m.Runs != 2 {
		t.Errorf("runs = %d, want 2 (the canceled attempt started a pipeline too)", m.Runs)
	}
}

// TestEngineInflightDedup checks that concurrent evaluations of one
// signature share a single pipeline execution: the first claims it, the
// rest wait for the outcome and report cache hits.
func TestEngineInflightDedup(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(context.Background(), in, guess)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for j := range results[0].Final.Machine {
			if results[i].Final.Machine[j] != results[0].Final.Machine[j] {
				t.Fatalf("run %d schedule differs at job %d", i, j)
			}
		}
	}
	m := e.Metrics()
	if m.Runs != 1 {
		t.Errorf("runs = %d, want 1 (one claimant, %d waiters)", m.Runs, n-1)
	}
	if m.CacheHits != n-1 || m.CacheMisses != 1 {
		t.Errorf("cache = %d hits / %d misses, want %d/1", m.CacheHits, m.CacheMisses, n-1)
	}
}

// TestEngineStageTimes checks that every stage of a successful run is
// accounted for in the metrics.
func TestEngineStageTimes(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	if _, err := e.Run(context.Background(), in, guess); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	for _, name := range StageNames() {
		if _, ok := m.StageTime[name]; !ok {
			t.Errorf("no stage time recorded for %s", name)
		}
	}
}

func TestClassifyStagePreparesOncePerGuess(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	st := &State{In: in, Guess: guess, Cfg: Config{Eps: 0.5}}
	ctx := context.Background()
	if err := stageScale.Run(ctx, st); err != nil {
		t.Fatal(err)
	}
	var base *classify.Base
	for _, bp := range []int{0, 4, 2, 1} {
		st.resetRung()
		st.BPrime = bp
		if err := (classifyStage{}).Run(ctx, st); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = st.Base
		} else if st.Base != base {
			t.Fatalf("cap %d: the rung prepared a new classification base", bp)
		}
		want, err := classify.Classify(st.Scaled, st.Cfg.Eps, classify.Options{BPrimeOverride: bp})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Info, want) {
			t.Fatalf("cap %d: stage classification differs from classify.Classify", bp)
		}
	}
}
