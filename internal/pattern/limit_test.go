package pattern

// Tests of the count-first limit: the over-limit decision must match the
// emit-and-check reference exactly, cancellation must win over the limit
// error, the counting pass must poll its context, and a rejection must
// cost the same allocations whatever the limit.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
	"repro/internal/workload"
)

// transformedAt scales in to the given makespan guess and runs the
// pre-enumeration stages under priority cap bprime.
func transformedAt(tb testing.TB, in *sched.Instance, guess, eps float64, bprime int) *transform.Transformed {
	tb.Helper()
	scaled, _ := round.ScaleRound(in, guess, eps)
	info, err := classify.Classify(scaled, eps, classify.Options{BPrimeOverride: bprime})
	if err != nil {
		tb.Fatal(err)
	}
	return transform.Apply(scaled, info)
}

// wideSpace returns a transformed instance whose pattern space at eps
// 0.5 holds 175,728 patterns under the theoretical cap (bprime 0),
// 59,687 under cap 4 and 2,497 under cap 1.
func wideSpace(tb testing.TB, bprime int) *transform.Transformed {
	tb.Helper()
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 32, Jobs: 96, Bags: 8, Seed: 1,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		tb.Fatal(err)
	}
	return transformedAt(tb, in, ub.Makespan(), 0.5, bprime)
}

func TestEnumerateLimitThresholdFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases, overs := 0, 0
	for _, path := range files {
		name := filepath.Base(path)
		if strings.HasPrefix(name, "churn_") {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.ReadInstance(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ub, err := greedy.BagLPT(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, eps := range []float64{0.3, 0.5} {
			for _, bp := range []int{0, 4, 2, 1} {
				tr := transformedAt(t, in, ub.Makespan(), eps, bp)
				for _, ref := range []bool{false, true} {
					label := fmt.Sprintf("%s eps=%g cap=%d float64Ref=%v", name, eps, bp, ref)
					full, fullErr := Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority,
						Options{Limit: DefaultLimit, Float64Ref: ref})
					if fullErr != nil && !errors.As(fullErr, new(ErrTooManyPatterns)) {
						t.Fatalf("%s limit %d: %v", label, DefaultLimit, fullErr)
					}
					limits := []int{50, 500}
					if fullErr == nil && !ref {
						checkCount(t, label, tr, full)
					}
					if fullErr == nil && len(full.Patterns) > 1 {
						// The exact boundary: n patterns fit a limit of n
						// and overflow a limit of n-1.
						limits = append(limits, len(full.Patterns), len(full.Patterns)-1)
					}
					for _, limit := range limits {
						cases++
						sp, err := Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority,
							Options{Limit: limit, Float64Ref: ref})
						wantOver := fullErr != nil || len(full.Patterns) > limit
						if wantOver {
							overs++
							var tooMany ErrTooManyPatterns
							if !errors.As(err, &tooMany) || tooMany.Limit != limit {
								t.Fatalf("%s limit %d: err = %v, want ErrTooManyPatterns{%d}", label, limit, err, limit)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s limit %d: %v (limit %d gave %d patterns)", label, limit, err, DefaultLimit, len(full.Patterns))
						}
						if !reflect.DeepEqual(sp, full) {
							t.Fatalf("%s limit %d: space differs from the limit-%d space", label, limit, DefaultLimit)
						}
					}
				}
			}
		}
	}
	if overs == 0 || overs == cases {
		t.Fatalf("%d of %d cases over the limit; the corpus must exercise both sides", overs, cases)
	}
}

// checkCount asserts that the counting pass alone tallies exactly the
// patterns and priority slots of the materialized space sp, and that sp
// was sized from that count.
func checkCount(t *testing.T, label string, tr *transform.Transformed, sp *Space) {
	t.Helper()
	st, err := newEnumState(tr.Inst, tr.View, tr.Priority, DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.countPrioFixed(context.Background(), 0, 0, 0, 0) {
		t.Fatalf("%s: counting pass rejected a space of %d patterns", label, len(sp.Patterns))
	}
	slots := 0
	for _, p := range sp.Patterns {
		slots += len(p.Prio)
	}
	if st.n != len(sp.Patterns) || st.nSlots != slots {
		t.Fatalf("%s: counted %d patterns / %d slots, enumerated %d / %d", label, st.n, st.nSlots, len(sp.Patterns), slots)
	}
	if cap(sp.Patterns) != len(sp.Patterns) {
		t.Fatalf("%s: Patterns has cap %d for %d patterns, want exact sizing", label, cap(sp.Patterns), len(sp.Patterns))
	}
}

func TestEnumerateCanceledWinsOverLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bp := range []int{1, 4} { // 2,497 and 59,687 patterns
		tr := wideSpace(t, bp)
		for _, ref := range []bool{false, true} {
			_, err := Enumerate(ctx, tr.Inst, tr.View, tr.Priority, Options{Float64Ref: ref})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cap %d float64Ref=%v: err = %v, want context.Canceled", bp, ref, err)
			}
		}
	}
}

// pollCtx is a live context that counts Err calls and reports
// context.Canceled from call cancelAt on (never when cancelAt is 0).
type pollCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

func TestEnumerateCountPollsContext(t *testing.T) {
	tr := wideSpace(t, 0)

	// A rejection emits nothing, so every poll but the final check
	// comes from the counting pass.
	live := &pollCtx{Context: context.Background()}
	_, err := Enumerate(live, tr.Inst, tr.View, tr.Priority, Options{Limit: 100_000})
	if !errors.As(err, new(ErrTooManyPatterns)) {
		t.Fatalf("err = %v, want ErrTooManyPatterns", err)
	}
	if live.calls < 3 {
		t.Fatalf("counting 100,000 patterns polled the context %d times, want periodic polls", live.calls)
	}

	// Canceled mid-count, the pass stops at its next poll: one more
	// call (the final check) and no emitting pass.
	canceled := &pollCtx{Context: context.Background(), cancelAt: 2}
	_, err = Enumerate(canceled, tr.Inst, tr.View, tr.Priority, Options{Limit: math.MaxInt32})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if canceled.calls != 3 {
		t.Fatalf("context polled %d times, want 3 (stop at the canceled poll, then the final check)", canceled.calls)
	}
}

func TestEnumerateRejectionAllocsIndependentOfLimit(t *testing.T) {
	tr := wideSpace(t, 0)
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, Options{Limit: limit})
			if !errors.As(err, new(ErrTooManyPatterns)) {
				t.Fatalf("limit %d: err = %v, want ErrTooManyPatterns", limit, err)
			}
		})
	}
	small, large := allocs(400), allocs(DefaultLimit)
	if large > small {
		t.Fatalf("rejection allocations grow with the limit: %v at 400, %v at %d", small, large, DefaultLimit)
	}
}
