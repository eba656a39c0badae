package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share returns num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windows is how many consecutive windows of equal operation count a
// measured pass is cut into, in the order operations ended. Latency
// percentiles and throughput are the median of the per-window values,
// so a burst of outside load (or one rare slow operation) in one window
// does not move them. Windows hold equal counts, not equal time: in a
// closed loop a few very slow operations would otherwise fill most of
// the time windows by themselves.
const windows = 5

// latencies collects per-operation latency samples of a pass.
type latencies struct {
	ms    []float64
	at    []time.Duration // when each operation ended, from the pass start
	okAt  []bool
	limit time.Duration
	met   int // operations that succeeded within limit
	sent  int
	ok    int
}

// add records one operation, in the order operations ended: its
// latency, when it ended relative to the pass start, and whether it
// succeeded.
func (l *latencies) add(d, at time.Duration, ok bool) {
	l.sent++
	l.ms = append(l.ms, ms(d))
	l.at = append(l.at, at)
	l.okAt = append(l.okAt, ok)
	if ok {
		l.ok++
		if d <= l.limit {
			l.met++
		}
	}
}

// report sets the end-to-end latency metrics of a pass that lasted
// elapsed on r.
func (l *latencies) report(r *run, elapsed time.Duration) {
	var p50, p90, p99, tput []float64
	var prevEnd time.Duration
	n := len(l.ms)
	for w := 0; w < windows; w++ {
		lo, hi := w*n/windows, (w+1)*n/windows
		if lo == hi {
			continue
		}
		samples := l.ms[lo:hi]
		done := 0
		for _, ok := range l.okAt[lo:hi] {
			if ok {
				done++
			}
		}
		end := l.at[hi-1]
		p50 = append(p50, quantile(samples, 0.50))
		p90 = append(p90, quantile(samples, 0.90))
		p99 = append(p99, quantile(samples, 0.99))
		if span := (end - prevEnd).Seconds(); span > 0 {
			tput = append(tput, float64(done)/span)
		}
		prevEnd = end
	}
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p90_ms", median(p90))
	r.set("latency_p99_ms", median(p99))
	r.set("throughput_ops_s", median(tput))
	r.set("slo_met_share", share(float64(l.met), float64(l.sent)))
	r.set("ok_share", share(float64(l.ok), float64(l.sent)))
	r.note("latency samples: %d in %d windows; whole-pass p50 %.4g p99 %.4g ms, %.4g ops/s; limit %v met by %d of %d sent",
		len(l.ms), windows, quantile(l.ms, 0.5), quantile(l.ms, 0.99), float64(l.ok)/elapsed.Seconds(), l.limit, l.met, l.sent)
}

// memSample is a runtime memory snapshot bracketing a pass.
type memSample struct {
	alloc uint64
	pause uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, pause: m.PauseTotalNs}
}

// reportRuntime sets the runtime per-layer metrics of a pass of ops
// operations that ran between before and after.
func reportRuntime(r *run, before, after memSample, ops int) {
	r.set("runtime.alloc_mb_per_op", share(float64(after.alloc-before.alloc)/(1<<20), float64(ops)))
	r.set("runtime.gc_pause_ms", float64(after.pause-before.pause)/1e6)
}

// timeSetup runs setup reps times and reports the median duration as
// setup_s; the last repetition's state is what the run uses.
func timeSetup(r *run, reps int, setup func() error) error {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.set("setup_s", median(ds))
	return nil
}
