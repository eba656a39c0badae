package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that made the call (-1 for an
// operation's root span). Times are nanoseconds since the trace began.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. begin/end nest like
// calls; add records a span whose bounds were measured elsewhere (a
// server's own elapsed time, an engine's stage clock).
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// beginOp starts a new operation's root span.
func (t *tracer) beginOp(name string) int {
	t.op++
	return t.begin(name)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: t.parent(), Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// add records a closed child of the innermost open span.
func (t *tracer) add(name string, start, end int64) { t.addUnder(t.parent(), name, start, end) }

// addUnder records a closed child of span parent.
func (t *tracer) addUnder(parent int, name string, start, end int64) {
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end})
}

// traceSet gathers the tracers of a traced pass (one per goroutine).
type traceSet struct {
	mu      sync.Mutex
	t0      time.Time
	tracers []*tracer
}

func newTraceSet() *traceSet { return &traceSet{t0: time.Now()} }

// tracer returns a new tracer of the set, for one goroutine.
func (s *traceSet) tracer() *tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := newTracer(s.t0)
	s.tracers = append(s.tracers, t)
	return t
}

// selfTimes is the outcome of folding a trace: self time per span name
// and the total duration of the root spans named opName.
type selfTimes struct {
	self   map[string]time.Duration
	calls  map[string]int
	opTime time.Duration
	ops    int
}

// fold computes self times: a span's duration minus the part its
// children cover. Children of one span never overlap in this benchmark
// (calls are sequential), so the covered part is their summed duration.
func (s *traceSet) fold(opName string) selfTimes {
	st := selfTimes{self: make(map[string]time.Duration), calls: make(map[string]int)}
	for _, t := range s.tracers {
		child := make([]int64, len(t.spans))
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				child[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range t.spans {
			d := sp.End - sp.Start
			st.self[sp.Name] += time.Duration(d - child[i])
			st.calls[sp.Name]++
			if sp.Parent < 0 && sp.Name == opName {
				st.opTime += time.Duration(d)
				st.ops++
			}
		}
	}
	return st
}

// write stores every span as one JSON line under dir and returns the
// file name.
func (s *traceSet) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range s.tracers {
		for _, sp := range t.spans {
			// Tracers number their operations independently; prefix the
			// tracer index so operation ids stay unique in the file.
			sp.Op = ti<<24 | sp.Op
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// report prints the self-time table of st and notes where the spans
// went; it returns the share of operation time no layer span covers.
func (st selfTimes) report(r *run, opName string) float64 {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	r.note("self time per span name over %d %q operations (%.1f ms total):", st.ops, opName, ms(st.opTime))
	for _, n := range names {
		r.note("  %-22s %6d calls %10.3f ms self %6.2f%% of op time", n, st.calls[n], ms(st.self[n]), 100*share(float64(st.self[n]), float64(st.opTime)))
	}
	return share(float64(st.self[opName]), float64(st.opTime))
}

// perOpMS is a span name's self time per operation, in milliseconds.
func (st selfTimes) perOpMS(name string) float64 {
	return share(ms(st.self[name]), float64(st.ops))
}

// writeTrace writes the spans of a traced pass into the checkout's
// build directory and notes the file.
func writeTrace(r *run, set *traceSet, part string) {
	name := fmt.Sprintf("%s-%s-seed%d.jsonl", r.cfg.workload, part, r.cfg.seed)
	path, err := set.write(filepath.Join(".bench_build", "traces"), name)
	if err != nil {
		r.note("trace not written: %v", err)
		return
	}
	r.note("spans written to %s", path)
}
