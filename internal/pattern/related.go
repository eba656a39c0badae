package pattern

import (
	"context"

	"repro/internal/classify"
	"repro/internal/numeric"
)

// RelPattern is one machine configuration of the related family: a
// multiset of large-job slots, anonymous (related machines have no
// bag-constraints, so slots carry sizes only, like the X slots of the
// bags family).
type RelPattern struct {
	// Count[i] is the multiplicity of large size index i (into
	// RelSpace.Sizes) on this configuration.
	Count []int
	// HeightFx is the exact total slot size; Height its lossless lift.
	HeightFx numeric.Fx
	Height   float64
	// NumJobs is the total slot count.
	NumJobs int
}

// RelSpace is the enumerated configuration space of the related
// family: one pattern list per speed class, each bounded by the
// class's exact capacity. Classes[k][0] is always the empty pattern.
type RelSpace struct {
	// Sizes is the shared large-size table (classify.RelInfo.Sizes,
	// decreasing); SizesFx mirrors it on the exact grid.
	Sizes   []float64
	SizesFx []numeric.Fx
	// Classes[k] lists the valid configurations of speed class k.
	Classes [][]RelPattern
}

// TotalPatterns returns the pattern count summed over all classes.
func (sp *RelSpace) TotalPatterns() int {
	n := 0
	for _, ps := range sp.Classes {
		n += len(ps)
	}
	return n
}

// EnumerateRelated builds the per-speed-class configuration space for
// a classified related instance. Slot multiplicities are bounded by
// the class capacity (exact integer division on the grid) and by the
// number of large jobs actually present per size — slots beyond the
// job supply can never be filled. Options.Limit bounds the total
// pattern count across classes (zero means DefaultLimit); the context
// is polled once per emitted pattern.
func EnumerateRelated(ctx context.Context, info *classify.RelInfo, opt Options) (*RelSpace, error) {
	limit := opt.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	sp := &RelSpace{Sizes: info.Sizes, SizesFx: info.SizesFx}
	st := &relEnumState{sp: sp, info: info, limit: limit, counts: make([]int, len(info.Sizes))}
	for k := range info.Speeds {
		st.capFx = info.CapFx[k]
		st.class = nil
		if !st.enum(ctx, 0, 0, 0) {
			return nil, st.err
		}
		sp.Classes = append(sp.Classes, st.class)
	}
	return sp, nil
}

type relEnumState struct {
	sp     *RelSpace
	info   *classify.RelInfo
	limit  int
	capFx  numeric.Fx
	counts []int
	class  []RelPattern
	ints   []int
	err    error
}

// enum walks size indices in decreasing-size order choosing a
// multiplicity per size; the all-zero branch recurses first, so the
// first emitted pattern of every class is the empty one.
func (st *relEnumState) enum(ctx context.Context, i int, height numeric.Fx, jobs int) bool {
	if i == len(st.info.Sizes) {
		return st.emit(ctx, height, jobs)
	}
	size := st.info.SizesFx[i]
	maxC := st.info.SizeCount[i]
	if rem := st.capFx - height; int(rem/size) < maxC {
		maxC = int(rem / size)
	}
	for c := 0; c <= maxC; c++ {
		st.counts[i] = c
		if !st.enum(ctx, i+1, height+size.MulInt(c), jobs+c) {
			return false
		}
	}
	st.counts[i] = 0
	return true
}

func (st *relEnumState) emit(ctx context.Context, heightFx numeric.Fx, jobs int) bool {
	if err := ctx.Err(); err != nil {
		st.err = err
		return false
	}
	if st.sp.TotalPatterns()+len(st.class) >= st.limit {
		st.err = ErrTooManyPatterns{Limit: st.limit}
		return false
	}
	st.class = append(st.class, RelPattern{
		Count:    appendWindow(&st.ints, st.counts),
		HeightFx: heightFx,
		Height:   heightFx.Float(),
		NumJobs:  jobs,
	})
	return true
}
