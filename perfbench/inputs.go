package main

import (
	"fmt"

	bagsched "repro"
	"repro/internal/family"
	"repro/internal/sched"
	"repro/internal/workload"
)

// cell is one kind of input: a generator, its size, the accuracy it is
// solved at and the problem family it is solved as.
type cell struct {
	gen     workload.Family
	m, n, b int
	eps     float64
	problem family.Family
}

// input is one generated instance with how to solve it.
type input struct {
	name string
	in   *sched.Instance
	eps  float64
	fam  family.Family
}

// opts returns the library options that solve in as its family.
func (in *input) opts() []bagsched.Option {
	if in.fam == family.Bags {
		return nil
	}
	return []bagsched.Option{bagsched.WithFamily(in.fam)}
}

// generate draws the k-th instance of cell c under the run seed.
func (c cell) generate(seed int64, idx, k int) (*input, error) {
	spec := workload.Spec{Family: c.gen, Machines: c.m, Jobs: c.n, Bags: c.b, Seed: deriveSeed(seed, idx, k)}
	in, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name(), err)
	}
	return &input{
		name: fmt.Sprintf("%s/%s/eps%.2g/%d", c.problem.Name(), spec.Name(), c.eps, k),
		in:   in,
		eps:  c.eps,
		fam:  c.problem,
	}, nil
}

// deriveSeed mixes the run seed with a cell index and a draw index
// (SplitMix64), so every cell draws independent instances.
func deriveSeed(seed int64, idx, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)<<32 + uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// generateRoundRobin draws count instances cycling over cells, so any
// prefix of the list holds every cell in equal measure.
func generateRoundRobin(cells []cell, seed int64, count int) ([]*input, error) {
	out := make([]*input, 0, count)
	for i := 0; i < count; i++ {
		in, err := roundRobin(cells, seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// roundRobin is the i-th input of generateRoundRobin.
func roundRobin(cells []cell, seed int64, i int) (*input, error) {
	idx := i % len(cells)
	return cells[idx].generate(seed, idx, i/len(cells))
}

var (
	bags      = family.Bags
	identical = family.Identical
	related   = family.Related
)

// oneshotCells is the cold-solve mix: uniform, geometric, skewed,
// bimodal, adversarial and manylarge bag instances with m from 32 to
// 256, plus identical- and related-family slices. At eps 0.3 these bag
// instances exhaust the pattern limit on every guess and return the
// bag-LPT fallback (core.fallback_share), so pattern enumeration does
// the work; the eps 0.5 cells accept guesses and run the oracle. Every
// cell's default solve stayed under about 50 ms on 20 seeds; eps 0.5
// cells with branch-and-bound tails of 50-300 ms made the mix's p99
// swing by 40% from seed to seed, and cells that reach the 2 s
// wall-clock backstop are in heavyCells.
var oneshotCells = []cell{
	{workload.Uniform, 32, 96, 8, 0.3, bags},
	{workload.Uniform, 64, 320, 16, 0.3, bags},
	{workload.Uniform, 128, 640, 32, 0.3, bags},
	{workload.Uniform, 256, 1280, 64, 0.3, bags},
	{workload.Geometric, 32, 160, 8, 0.3, bags},
	{workload.Skewed, 32, 96, 8, 0.3, bags},
	{workload.Skewed, 128, 640, 32, 0.3, bags},
	{workload.Skewed, 256, 1280, 64, 0.3, bags},
	{workload.Adversarial, 256, 0, 0, 0.3, bags},
	{workload.Bimodal, 256, 1280, 64, 0.5, bags},
	{workload.Adversarial, 128, 0, 0, 0.5, bags},
	{workload.ManyLarge, 128, 192, 16, 0.5, bags},
	{workload.Uniform, 64, 192, 64, 0.3, identical},
	{workload.Uniform, 32, 96, 32, 0.3, identical},
	{workload.RelatedFew, 64, 192, 64, 0.5, related},
	{workload.RelatedSkew, 64, 192, 64, 0.3, related},
}

// heavyCells are cold solves whose default-backend time ran past 100 ms
// on 1 to 17 of 20 seeds, up to the oracle's 2 s wall-clock backstop
// (more than once per solve). A few such solves in a run move an
// end-to-end figure by more than its bound, so only the traced oneshot
// run solves them, where oracle.wallclock_stops counts the backstop
// stops.
var heavyCells = []cell{
	{workload.Geometric, 128, 640, 32, 0.5, bags},
	{workload.Uniform, 128, 384, 128, 0.5, identical},
	{workload.Uniform, 256, 1280, 64, 0.5, bags},
	{workload.Bimodal, 64, 320, 32, 0.5, bags},
	{workload.Skewed, 64, 320, 16, 0.5, bags},
	{workload.Bimodal, 64, 320, 16, 0.3, bags},
}

// serveCells feed the serve_hot instance pool: bag instances with
// m <= 32 of similar size, so that which instances the Zipf draw makes
// hot moves the latency tail little. They are eps 0.3 cells, whose cold
// solves (the set-up) take 10-20 ms without a branch-and-bound tail.
var serveCells = []cell{
	{workload.Uniform, 32, 160, 8, 0.3, bags},
	{workload.Uniform, 32, 96, 8, 0.3, bags},
	{workload.Geometric, 32, 160, 8, 0.3, bags},
	{workload.Skewed, 32, 96, 8, 0.3, bags},
}

// churnCells are the bases of the churn traces: bag instances with m
// from 32 to 64. Most are at eps 0.3, where guesses exhaust the pattern
// limit and the warm search, the memo's negative entries and placement
// repair do the work. Structural resolves of eps 0.5 bases (even the
// adversarial family's) run the branch-and-bound oracle with the cold
// solves' heavy tail, p90 near 300 ms and p99 up to the 2 s backstop:
// a few such steps decide a run's figures.
var churnCells = []cell{
	{workload.Uniform, 32, 96, 8, 0.3, bags},
	{workload.Skewed, 32, 96, 8, 0.3, bags},
	{workload.Geometric, 32, 160, 8, 0.3, bags},
	{workload.Uniform, 64, 320, 16, 0.3, bags},
	{workload.Skewed, 64, 320, 16, 0.3, bags},
}
