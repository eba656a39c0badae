package classify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/round"
	"repro/internal/sched"
)

// roundedInstance builds an instance with sizes rounded to powers of
// (1+eps), as Classify expects.
func roundedInstance(machines int, eps float64, sizes []float64, bags []int) *sched.Instance {
	in := sched.NewInstance(machines)
	for i, s := range sizes {
		v, _ := round.UpGeometric(s, eps)
		in.AddJob(v, bags[i])
	}
	return in
}

func TestClassifyRejectsBadEps(t *testing.T) {
	in := sched.NewInstance(2)
	for _, eps := range []float64{0, -1, 1, 2} {
		if _, err := Classify(in, eps, Options{}); err == nil {
			t.Errorf("eps=%g accepted", eps)
		}
	}
}

func TestClassesPartitionBySize(t *testing.T) {
	eps := 0.5
	in := roundedInstance(4, eps,
		[]float64{1.0, 0.6, 0.3, 0.26, 0.1, 0.01},
		[]int{0, 1, 2, 3, 0, 1})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epsK := math.Pow(eps, float64(info.K))
	epsK1 := math.Pow(eps, float64(info.K+1))
	for j, job := range in.Jobs {
		var want Class
		switch {
		case job.Size >= epsK-1e-9:
			want = Large
		case job.Size >= epsK1-1e-9:
			want = Medium
		default:
			want = Small
		}
		if info.JobClass[j] != want {
			t.Errorf("job %d size %g: class %v, want %v (k=%d)", j, job.Size, info.JobClass[j], want, info.K)
		}
	}
}

func TestLemma1BandBound(t *testing.T) {
	// Property: for random rounded instances whose total area fits on m
	// machines with makespan ~1, the selected band area respects the
	// eps^2*(1+eps)*m bound.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := []float64{0.5, 0.33, 0.25}[rng.Intn(3)]
		m := 2 + rng.Intn(8)
		in := sched.NewInstance(m)
		area := 0.0
		bag := 0
		budget := float64(m) // total area <= m (OPT <= 1 possible-ish)
		for area < budget*0.9 {
			s := math.Pow(rng.Float64(), 2) // skew toward small
			if s < 1e-4 {
				s = 1e-4
			}
			if area+s > budget {
				break
			}
			v, _ := round.UpGeometric(s, eps)
			in.AddJob(v, bag%64)
			bag++
			area += s
		}
		if len(in.Jobs) == 0 {
			return true
		}
		info, err := Classify(in, eps, Options{})
		if err != nil {
			return false
		}
		bound := eps * eps * (1 + eps) * float64(m)
		return info.BandArea <= bound+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmallestQualifyingK(t *testing.T) {
	// Band k=1 is empty, so k must be 1 even if higher bands are empty
	// too (smallest qualifying k wins, keeping q small).
	eps := 0.5
	in := roundedInstance(4, eps, []float64{1.0, 1.0, 0.05}, []int{0, 1, 2})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 1 {
		t.Errorf("K = %d, want 1", info.K)
	}
}

func TestDerivedParameters(t *testing.T) {
	eps := 0.5
	in := roundedInstance(4, eps, []float64{1.0, 0.3, 0.1}, []int{0, 1, 2})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.T != 1+2*eps+eps*eps {
		t.Errorf("T = %g", info.T)
	}
	wantQ := int(math.Floor(info.T / math.Pow(eps, float64(info.K+1))))
	if info.Q != wantQ {
		t.Errorf("Q = %d, want %d", info.Q, wantQ)
	}
	wantSigma := math.Pow(eps, float64(2*info.K+11))
	if math.Abs(info.Sigma-wantSigma) > 1e-15 {
		t.Errorf("Sigma = %g, want %g", info.Sigma, wantSigma)
	}
	if info.BPrime != (info.D*info.Q+1)*info.Q && info.BPrime != in.NumBags {
		t.Errorf("BPrime = %d", info.BPrime)
	}
}

func TestLargeBagDetection(t *testing.T) {
	eps := 0.5
	// m=4: eps*m = 2 medium/large jobs marks a large bag.
	in := sched.NewInstance(4)
	v, _ := round.UpGeometric(0.9, eps)
	in.AddJob(v, 0)
	in.AddJob(v, 0) // bag 0: two large jobs -> large bag
	in.AddJob(v, 1) // bag 1: one large job  -> small bag
	w, _ := round.UpGeometric(0.01, eps)
	in.AddJob(w, 2) // bag 2: small jobs only
	in.AddJob(w, 2)
	in.AddJob(w, 2)
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.LargeBag[0] || info.LargeBag[1] || info.LargeBag[2] {
		t.Errorf("LargeBag = %v", info.LargeBag)
	}
	if !info.Priority[0] {
		t.Error("large bag must be priority")
	}
}

func TestPrioritySelectionOrder(t *testing.T) {
	eps := 0.5
	// With BPrimeOverride=1, only the fullest bag per large size is
	// priority.
	in := sched.NewInstance(16)
	v, _ := round.UpGeometric(0.9, eps)
	for i := 0; i < 3; i++ {
		in.AddJob(v, 0) // bag 0: 3 large jobs... but 3 >= eps*m=8? no
	}
	in.AddJob(v, 1) // bag 1: 1 large job
	info, err := Classify(in, eps, Options{BPrimeOverride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Priority[0] {
		t.Error("bag 0 (fullest) must be priority")
	}
	if info.Priority[1] {
		t.Error("bag 1 must not be priority under BPrimeOverride=1")
	}
}

func TestAllPriorityOption(t *testing.T) {
	eps := 0.5
	in := roundedInstance(4, eps, []float64{1, 0.5, 0.1}, []int{0, 1, 2})
	info, err := Classify(in, eps, Options{AllPriority: true})
	if err != nil {
		t.Fatal(err)
	}
	for b, p := range info.Priority {
		if !p {
			t.Errorf("bag %d not priority in AllPriority mode", b)
		}
	}
}

func TestCountsTable(t *testing.T) {
	eps := 0.5
	in := roundedInstance(4, eps, []float64{1, 1, 0.5, 0.1}, []int{0, 0, 1, 0})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for b := range info.Counts {
		for _, c := range info.Counts[b] {
			total += c
		}
	}
	if total != len(in.Jobs) {
		t.Errorf("counts cover %d jobs, want %d", total, len(in.Jobs))
	}
	// Bag 0 has two jobs of the same (largest) size.
	si0 := info.JobSize[0]
	if info.Counts[0][si0] != 2 {
		t.Errorf("Counts[0][%d] = %d, want 2", si0, info.Counts[0][si0])
	}
}

func TestClassOfMatchesJobClass(t *testing.T) {
	eps := 0.4
	in := roundedInstance(4, eps, []float64{1, 0.37, 0.14, 0.02}, []int{0, 1, 2, 3})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, job := range in.Jobs {
		if info.ClassOf(job.Size) != info.JobClass[j] {
			t.Errorf("ClassOf(%g) = %v, JobClass = %v", job.Size, info.ClassOf(job.Size), info.JobClass[j])
		}
	}
}

func TestSizesTableSortedDistinct(t *testing.T) {
	eps := 0.5
	in := roundedInstance(4, eps, []float64{1, 1, 0.5, 0.5, 0.1}, []int{0, 1, 2, 3, 0})
	info, err := Classify(in, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(info.Sizes); i++ {
		if info.Sizes[i] >= info.Sizes[i-1] {
			t.Errorf("Sizes not strictly decreasing: %v", info.Sizes)
		}
	}
	for j := range in.Jobs {
		si := info.JobSize[j]
		if math.Abs(info.Sizes[si]-in.Jobs[j].Size) > 1e-9 {
			t.Errorf("job %d mapped to wrong size", j)
		}
	}
}

func TestPriorityTiesFavorLowerBagIDs(t *testing.T) {
	eps := 0.5
	in := sched.NewInstance(64)
	in.NumBags = 6
	v, _ := round.UpGeometric(0.9, eps)
	for _, b := range []int{5, 2, 3, 5, 2} { // bags 2 and 5 hold two each, bag 3 one
		in.AddJob(v, b)
	}
	for bp, want := range map[int][]int{1: {2}, 2: {2, 5}, 3: {2, 3, 5}} {
		info, err := Classify(in, eps, Options{BPrimeOverride: bp})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for b, p := range info.Priority {
			if p {
				got = append(got, b)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d: priority bags %v, want %v", bp, got, want)
		}
	}
}

func TestSelectOnSharedBaseMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := []Options{{}, {BPrimeOverride: 4}, {BPrimeOverride: 2}, {BPrimeOverride: 1}, {AllPriority: true}, {}}
	for trial := 0; trial < 50; trial++ {
		eps := []float64{0.3, 0.5}[trial%2]
		n := 10 + rng.Intn(60)
		sizes, bags := make([]float64, n), make([]int, n)
		for i := range sizes {
			sizes[i] = 0.01 + 1.2*rng.Float64()
			bags[i] = rng.Intn(12)
		}
		in := roundedInstance(4+rng.Intn(12), eps, sizes, bags)
		base, err := Prepare(in, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range opts {
			want, err := Classify(in, eps, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := base.Select(opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v: Select on a shared base differs from Classify:\n got %+v\nwant %+v", trial, opt, got, want)
			}
		}
	}
}
