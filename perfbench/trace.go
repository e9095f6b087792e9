package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Span is one timed interval of the traced run: a call into a layer's public
// function, or a phase the benchmark drives itself. Spans nest; Parent is the
// index of the enclosing span (-1 at top level) and Job the simulation job the
// span belongs to (-1 when it spans several).
type Span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	// StartNs and EndNs are host nanoseconds since the tracer started.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// HotNs is the host time of aggregated hot calls (see hotKind) that
	// ran while this span was the innermost open one.
	HotNs int64 `json:"hot_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.EndNs - s.StartNs }

// hotKind names a per-call aggregate: calls too frequent to record as spans
// are counted and timed in bulk instead.
type hotKind int

const (
	hotPlan   hotKind = iota // workload Driver.PlanRequest
	hotInject                // the arrival process's inject callback
	hotSweep                 // one relinquished line (core insn Line)
	numHot
)

// hotStat aggregates one hot call site.
type hotStat struct {
	Calls uint64 `json:"calls"`
	Ns    int64  `json:"ns"`
	// Useful counts calls whose outcome was the layer's purpose: for
	// sweeps, a dirty line dropped without a writeback.
	Useful uint64 `json:"useful"`
}

// tracer records spans and hot-call aggregates in memory. The simulator runs
// single-threaded under the benchmark, so the tracer is not synchronized.
type tracer struct {
	id    int
	epoch time.Time
	spans []Span
	open  []int // stack of open span indices
	job   int   // job stamped on new spans
	hot   [numHot]hotStat

	// probing is set while a peak search runs: every arrival-process
	// construction or reset then starts a new probe span.
	probing bool
	probe   int // index of the open probe span, -1 when none
	probes  int
	err     error
}

// tracerIDs numbers tracers, so each one registers wrappers of its own.
var tracerIDs atomic.Int64

func newTracer() *tracer {
	return &tracer{id: int(tracerIDs.Add(1)), epoch: time.Now(), job: -1, probe: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Job: t.job, Parent: parent, StartNs: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		if t.err == nil {
			t.err = fmt.Errorf("perfbench: span %q closed out of order", t.spans[id].Name)
		}
		return
	}
	t.spans[id].EndNs = t.now()
	t.open = t.open[:n-1]
}

// rename relabels an open span once the call it brackets has shown which
// case it took (a pool Get that built versus one that reset).
func (t *tracer) rename(id int, name string) { t.spans[id].Name = name }

// addHot books one hot call that started at start.
func (t *tracer) addHot(k hotKind, start time.Time, useful bool) {
	d := int64(time.Since(start))
	h := &t.hot[k]
	h.Calls++
	h.Ns += d
	if useful {
		h.Useful++
	}
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].HotNs += d
	}
}

// arrivalBuilt marks an arrival process being built or reset: in a pooled
// open-loop run that is the start of the next simulation. During a peak
// search it closes the running probe span and opens the next one.
func (t *tracer) arrivalBuilt() {
	if !t.probing {
		return
	}
	if t.probe >= 0 {
		t.end(t.probe)
	}
	t.probes++
	t.job = t.probes // job 0 is the calibration
	t.probe = t.begin("experiments.probe")
}

// startProbing and stopProbing bracket a peak search.
func (t *tracer) startProbing() { t.probing, t.probe, t.probes = true, -1, 0 }

func (t *tracer) stopProbing() {
	if t.probe >= 0 {
		t.end(t.probe)
	}
	t.probing, t.probe, t.job = false, -1, -1
}

// selfNs returns each span's self time: its duration minus the durations of
// its direct children and of the hot calls booked to it.
func selfNs(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur() - s.HotNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}
