package pattern

import (
	"context"
	"errors"
	"testing"

	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/round"
	"repro/internal/transform"
	"repro/internal/workload"
)

// benchSetup builds the pre-enumeration pipeline once per benchmark.
func benchSetup(b *testing.B, eps float64) (*transform.Transformed, Options) {
	b.Helper()
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 8, Jobs: 48, Bags: 10, Seed: 9,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), eps)
	// A small priority cap keeps non-priority bags around, so the X-slot
	// multiplicity loops (the integer-division hot path) are exercised.
	info, err := classify.Classify(scaled, eps, classify.Options{BPrimeOverride: 2})
	if err != nil {
		b.Fatal(err)
	}
	return transform.Apply(scaled, info), Options{Limit: 2_000_000}
}

// BenchmarkEnumerateFixed measures the default integer enumeration;
// BenchmarkEnumerateFloat64Ref the retained pre-refactor float64 path on
// the identical instance. The delta is the fixed-point core's win in the
// hottest loop of the EPTAS.
func benchEnumerate(b *testing.B, eps float64, float64Ref bool) {
	tr, opt := benchSetup(b, eps)
	opt.Float64Ref = float64Ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = len(sp.Patterns)
	}
}

func BenchmarkEnumerateFixed_Eps050(b *testing.B)      { benchEnumerate(b, 0.5, false) }
func BenchmarkEnumerateFloat64Ref_Eps050(b *testing.B) { benchEnumerate(b, 0.5, true) }
func BenchmarkEnumerateFixed_Eps040(b *testing.B)      { benchEnumerate(b, 0.4, false) }
func BenchmarkEnumerateFloat64Ref_Eps040(b *testing.B) { benchEnumerate(b, 0.4, true) }

// BenchmarkEnumerateOverLimit measures the rejection of a space over
// DefaultLimit (175,728 patterns): the counting pass alone, which must
// stop at the limit without materializing a pattern.
func BenchmarkEnumerateOverLimit(b *testing.B) {
	tr := wideSpace(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, Options{})
		if !errors.As(err, new(ErrTooManyPatterns)) {
			b.Fatalf("err = %v, want ErrTooManyPatterns", err)
		}
	}
}
