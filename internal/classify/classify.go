// Package classify implements the job and bag classification of Section 2
// of the paper: the Lemma 1 selection of the medium band exponent k, the
// large/medium/small job classes, large bags, size-restricted bags B^s_l
// and the Definition 2 selection of priority bags.
package classify

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric"
	"repro/internal/sched"
)

// Class is a job size class relative to the chosen band exponent k.
type Class int

const (
	// Small jobs have size < eps^(k+1).
	Small Class = iota
	// Medium jobs have eps^(k+1) <= size < eps^k.
	Medium
	// Large jobs have size >= eps^k.
	Large
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Info is the classification of a scaled-and-rounded instance. All derived
// parameters of the EPTAS live here.
type Info struct {
	// Eps is the accuracy parameter.
	Eps float64
	// K is the Lemma 1 band exponent: the medium band is
	// [eps^(K+1), eps^K).
	K int
	// BandArea is the total size of jobs inside the chosen medium band.
	BandArea float64
	// T = 1 + 2*eps + eps^2 is the relaxed optimal height after the
	// instance transformation (Lemma 2).
	T float64
	// Q = floor(T / eps^(K+1)) bounds the number of medium and large
	// jobs on any machine of a height-T schedule.
	Q int
	// D is the number of distinct large job sizes present.
	D int
	// BPrime is the Definition 2 constant (d*q+1)*q capped at the number
	// of bags: per large size, the BPrime fullest size-restricted bags
	// are priority.
	BPrime int
	// Sigma = eps^(2K+11) is the constraint (7) threshold: small jobs of
	// priority bags larger than Sigma get integral MILP variables.
	Sigma float64

	// TCapFx is the exact fixed-point pattern-capacity bound,
	// numeric.Cap(T + Tol): for grid heights h, hFx <= TCapFx holds
	// exactly when h <= T+Tol held on the float path. The tolerance band
	// is folded in here once; every downstream capacity check is an exact
	// integer comparison.
	TCapFx numeric.Fx
	// SigmaCapFx is the exact form of the constraint (7) threshold,
	// numeric.Cap(Sigma + Tol).
	SigmaCapFx numeric.Fx

	// Sizes lists the distinct job sizes in decreasing order.
	Sizes []float64
	// SizesFx mirrors Sizes on the numeric.Fx grid (exact, since every
	// post-Scale size is a grid value).
	SizesFx []numeric.Fx
	// SizeClass[i] is the class of Sizes[i].
	SizeClass []Class
	// JobSize[j] is the index into Sizes of job j's size.
	JobSize []int
	// JobClass[j] is the class of job j.
	JobClass []Class

	// Counts[b][i] is the number of jobs of bag b with size index i.
	Counts [][]int
	// LargeBag[b] reports whether bag b holds at least eps*m medium or
	// large jobs.
	LargeBag []bool
	// Priority[b] reports whether bag b is a priority bag.
	Priority []bool
}

// Options tunes classification.
type Options struct {
	// AllPriority forces every bag to be a priority bag. This disables
	// the paper's priority selection and yields the Das–Wiese-style
	// configuration program whose size grows with the number of bags.
	AllPriority bool
	// BPrimeOverride, when positive, caps the Definition 2 constant b'
	// below its theoretical value (d*q+1)*q. The theoretical constant
	// exceeds any moderate bag count for practical eps, which makes the
	// priority set cover every bag and the instance transformation a
	// no-op; capping it exercises the non-priority machinery (bag
	// splitting, X slots, Lemma 3/4/7 repairs) at the cost of the formal
	// guarantee. Quality remains verified empirically (EX suite).
	BPrimeOverride int
}

// thresholds returns (eps^k, eps^(k+1)).
func thresholds(eps float64, k int) (float64, float64) {
	return math.Pow(eps, float64(k)), math.Pow(eps, float64(k+1))
}

// Classify analyses a scaled-and-rounded instance (sizes are expected to
// be at most ~1+eps, i.e. relative to a makespan guess of 1). It is
// Prepare followed by Select.
func Classify(in *sched.Instance, eps float64, opt Options) (*Info, error) {
	b, err := Prepare(in, eps)
	if err != nil {
		return nil, err
	}
	return b.Select(opt), nil
}

// Base is the part of a classification that does not depend on the
// priority cap: the Lemma 1 band, the size table, the per-job views, the
// size-restricted bag counts, the large bags and the Definition 2 ranking
// of bags per large size. A degradation ladder prepares one Base per
// makespan guess and calls Select once per cap.
type Base struct {
	// info is the classification without BPrime and Priority.
	info Info
	// rank[si] lists the bags holding jobs of size index si, fullest
	// first and ties by increasing bag id; nil unless si is large.
	rank [][]int
}

// Prepare runs every cap-independent step of Classify on in.
func Prepare(in *sched.Instance, eps float64) (*Base, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("classify: eps must be in (0,1), got %g", eps)
	}
	base := &Base{info: Info{Eps: eps, T: 1 + 2*eps + eps*eps}}
	info := &base.info

	// Lemma 1: pick the smallest k in {1..ceil(1/eps^2)} whose band area
	// sum{p_j : p_j in [eps^(k+1), eps^k)} is at most eps^2*(1+eps)*m.
	// Existence follows by pigeonhole when the guess is correct (the
	// bands are disjoint and the total area is at most (1+eps)*m); if no
	// band qualifies (guess below OPT), the minimizer is used. Taking
	// the smallest qualifying k keeps the derived constants q and d — and
	// with them the pattern space — as small as possible.
	kMax := int(math.Ceil(1 / (eps * eps)))
	target := eps * eps * (1 + eps) * float64(in.Machines)
	bestK, bestArea := -1, math.Inf(1)
	minK, minArea := 1, math.Inf(1)
	for k := 1; k <= kMax; k++ {
		hi, lo := thresholds(eps, k)
		area := 0.0
		for _, j := range in.Jobs {
			if j.Size >= lo-numeric.Tol && j.Size < hi-numeric.Tol {
				area += j.Size
			}
		}
		if area < minArea {
			minK, minArea = k, area
		}
		if area <= target+numeric.Tol {
			bestK, bestArea = k, area
			break
		}
	}
	if bestK < 0 {
		bestK, bestArea = minK, minArea
	}
	info.K = bestK
	info.BandArea = bestArea
	epsK, epsK1 := thresholds(eps, bestK)
	info.Q = int(math.Floor(info.T/epsK1 + numeric.Tol))
	info.Sigma = math.Pow(eps, float64(2*bestK+11))
	info.TCapFx = numeric.Cap(info.T + numeric.Tol)
	info.SigmaCapFx = numeric.Cap(info.Sigma + numeric.Tol)

	// Distinct sizes, decreasing.
	info.Sizes = distinctSizesDesc(in)
	info.SizesFx = make([]numeric.Fx, len(info.Sizes))
	for i, s := range info.Sizes {
		info.SizesFx[i] = numeric.FromFloat(s)
	}
	info.SizeClass = make([]Class, len(info.Sizes))
	for i, s := range info.Sizes {
		info.SizeClass[i] = classOf(s, epsK, epsK1)
		if info.SizeClass[i] == Large {
			info.D++
		}
	}
	info.JobSize = make([]int, len(in.Jobs))
	info.JobClass = make([]Class, len(in.Jobs))
	for j, job := range in.Jobs {
		idx := findSize(info.Sizes, job.Size)
		info.JobSize[j] = idx
		info.JobClass[j] = info.SizeClass[idx]
	}

	// Size-restricted bag counts, one backing array for all bags.
	nSizes := len(info.Sizes)
	flat := make([]int, in.NumBags*nSizes)
	info.Counts = make([][]int, in.NumBags)
	for b := range info.Counts {
		info.Counts[b] = flat[b*nSizes : (b+1)*nSizes : (b+1)*nSizes]
	}
	for j, job := range in.Jobs {
		info.Counts[job.Bag][info.JobSize[j]]++
	}

	// Large bags: at least eps*m medium-or-large jobs.
	info.LargeBag = make([]bool, in.NumBags)
	mlPerBag := make([]int, in.NumBags)
	for j, job := range in.Jobs {
		if info.JobClass[j] != Small {
			mlPerBag[job.Bag]++
		}
	}
	threshold := eps * float64(in.Machines)
	for b, c := range mlPerBag {
		if float64(c) >= threshold && c > 0 {
			info.LargeBag[b] = true
		}
	}

	// Definition 2 ranking: per large size s, the bags by decreasing
	// number of size-s jobs, ties by increasing id. Sorting packed
	// (complemented count, bag) keys yields exactly that order.
	base.rank = make([][]int, nSizes)
	keys := make([]uint64, 0, in.NumBags)
	for si, cls := range info.SizeClass {
		if cls != Large {
			continue
		}
		keys = keys[:0]
		for b := range info.Counts {
			if c := info.Counts[b][si]; c > 0 {
				keys = append(keys, (math.MaxUint32-uint64(c))<<32|uint64(b))
			}
		}
		slices.Sort(keys)
		order := make([]int, len(keys))
		for i, k := range keys {
			order[i] = int(k & math.MaxUint32)
		}
		base.rank[si] = order
	}
	return base, nil
}

// Select finishes the classification for one priority cap: the
// Definition 2 constant b' and the priority bags. The returned Info
// shares every cap-independent slice with the Base (all read-only).
func (base *Base) Select(opt Options) *Info {
	info := base.info
	numBags := len(info.LargeBag)

	// Priority bags (Definition 2): per large size s, the b' bags with
	// the most size-s jobs, plus every large bag. The theoretical
	// b' = (d*q+1)*q is capped by the number of bags present.
	info.BPrime = (info.D*info.Q + 1) * info.Q
	if opt.BPrimeOverride > 0 && info.BPrime > opt.BPrimeOverride {
		info.BPrime = opt.BPrimeOverride
	}
	if info.BPrime > numBags {
		info.BPrime = numBags
	}
	info.Priority = make([]bool, numBags)
	if opt.AllPriority {
		for b := range info.Priority {
			info.Priority[b] = true
		}
		return &info
	}
	copy(info.Priority, info.LargeBag)
	for _, order := range base.rank {
		for _, b := range order[:min(len(order), info.BPrime)] {
			info.Priority[b] = true
		}
	}
	return &info
}

// ClassOf returns the class of an arbitrary size under this
// classification's thresholds. It is used for jobs created after
// classification (filler jobs of the instance transformation).
func (info *Info) ClassOf(size float64) Class {
	epsK, epsK1 := thresholds(info.Eps, info.K)
	return classOf(size, epsK, epsK1)
}

// LargeThreshold returns eps^K, the minimum large size.
func (info *Info) LargeThreshold() float64 {
	t, _ := thresholds(info.Eps, info.K)
	return t
}

// SmallThreshold returns eps^(K+1), the supremum of small sizes.
func (info *Info) SmallThreshold() float64 {
	_, t := thresholds(info.Eps, info.K)
	return t
}

func classOf(size, epsK, epsK1 float64) Class {
	switch {
	case size >= epsK-numeric.Tol:
		return Large
	case size >= epsK1-numeric.Tol:
		return Medium
	default:
		return Small
	}
}

// distinctSizesDesc returns the distinct job sizes of in in decreasing
// order, merging sizes equal within tolerance.
func distinctSizesDesc(in *sched.Instance) []float64 {
	sizes := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		sizes[i] = j.Size
	}
	slices.Sort(sizes)
	var out []float64
	for i := len(sizes) - 1; i >= 0; i-- {
		if s := sizes[i]; len(out) == 0 || !numeric.Eq(out[len(out)-1], s) {
			out = append(out, s)
		}
	}
	return out
}

// findSize locates size in the decreasing slice sizes within tolerance.
func findSize(sizes []float64, size float64) int {
	lo, hi := 0, len(sizes)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case numeric.Eq(sizes[mid], size):
			return mid
		case sizes[mid] > size:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	// Fallback linear scan (defensive; should not happen).
	for i, s := range sizes {
		if numeric.Eq(s, size) {
			return i
		}
	}
	return -1
}
