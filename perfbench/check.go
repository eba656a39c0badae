package main

import (
	"fmt"
	"math"

	"repro/internal/family"
	"repro/internal/sched"
)

// answer is a solver answer reduced to what the checks read: the
// machine of every job (in input order), the reported makespan, the
// reported lower bound and the quality bound.
type answer struct {
	machine  []int
	makespan float64
	lower    float64
	bound    float64
}

// relTol absorbs float summation-order differences between the
// solver's load computation and the recomputation here.
const relTol = 1e-9

// checkAnswer verifies a for input in solved as family fam:
//   - every job is placed exactly once, on an existing machine;
//   - no two jobs of one bag share a machine (bag-constrained family);
//   - the reported makespan equals the recomputed maximum load;
//   - the reported lower bound is the family's bound, and the makespan
//     is at least it;
//   - the quality bound is present.
func checkAnswer(in *sched.Instance, fam family.Family, a answer) error {
	if len(a.machine) != len(in.Jobs) {
		return fmt.Errorf("assignment has %d entries for %d jobs", len(a.machine), len(in.Jobs))
	}
	loads := make([]float64, in.Machines)
	type machBag struct{ m, b int }
	seen := make(map[machBag]int, len(in.Jobs))
	checkBags := fam == family.Bags
	for j, m := range a.machine {
		if m < 0 || m >= in.Machines {
			return fmt.Errorf("job %d placed on machine %d of %d", j, m, in.Machines)
		}
		loads[m] += in.Jobs[j].Size
		if checkBags {
			k := machBag{m, in.Jobs[j].Bag}
			if other, dup := seen[k]; dup {
				return fmt.Errorf("jobs %d and %d of bag %d share machine %d", other, j, in.Jobs[j].Bag, m)
			}
			seen[k] = j
		}
	}
	var maxLoad float64
	for m, l := range loads {
		if in.Speeds != nil {
			l /= in.Speeds[m]
		}
		maxLoad = math.Max(maxLoad, l)
	}
	if !near(maxLoad, a.makespan) {
		return fmt.Errorf("reported makespan %.12g, recomputed %.12g", a.makespan, maxLoad)
	}
	lb := fam.LowerBound(in)
	if !near(lb, a.lower) {
		return fmt.Errorf("reported lower bound %.12g, recomputed %.12g", a.lower, lb)
	}
	if a.makespan < lb*(1-relTol) {
		return fmt.Errorf("makespan %.12g below lower bound %.12g", a.makespan, lb)
	}
	if !(a.bound >= 1) {
		return fmt.Errorf("quality bound missing (%g)", a.bound)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameAnswer reports whether two answers of one input are identical:
// the same makespan bit for bit and the same machine for every job.
func sameAnswer(a, b answer) bool {
	if a.makespan != b.makespan || len(a.machine) != len(b.machine) {
		return false
	}
	for i := range a.machine {
		if a.machine[i] != b.machine[i] {
			return false
		}
	}
	return true
}
