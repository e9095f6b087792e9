// Package sim provides the discrete-event simulation engine used by every
// other subsystem: a cycle-granular clock and a deterministic event queue.
//
// Components implement Sink and schedule themselves at absolute cycle
// times; the engine dispatches them in time order, breaking ties by
// insertion order so that runs are fully reproducible.
//
// # Internals
//
// The queue is a hierarchical timing wheel sized for the simulator's
// scheduling horizon: almost every delta is short (DRAM timings, NoC hops,
// poll gaps are tens to thousands of cycles), so events within wheelSize
// cycles of the clock live in a bucket-per-cycle wheel with O(1) insert and
// a bitmap-guided scan to the next occupied bucket. The rare far-future
// events (refresh intervals, low-rate Poisson gaps) sit in a small binary
// min-heap keyed by (cycle, sequence) and migrate into the wheel as the
// clock approaches them.
//
// Event nodes are pooled: they live in one growable slab, are addressed by
// index, and recycle through a free list, so steady-state scheduling and
// dispatch perform no heap allocations.
package sim

import "math/bits"

const (
	wheelBits  = 13
	wheelSize  = 1 << wheelBits // cycles of near-future horizon
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

const (
	noNode   = int32(-1)
	maxCycle = ^Cycle(0)
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// Sink is an event target: components implement OnEvent once and schedule
// themselves with Engine.Schedule, passing an arg that selects the action.
// A Sink scheduling itself repeatedly costs zero heap allocations.
type Sink interface {
	OnEvent(now Cycle, arg uint64)
}

// eventNode is one pooled queue entry. Nodes are addressed by slab index;
// next links them into a bucket's FIFO list or the free list.
type eventNode struct {
	at   Cycle
	seq  uint64
	arg  uint64
	sink Sink
	next int32
}

type bucket struct{ head, tail int32 }

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	nodes []eventNode
	free  int32 // free-list head

	buckets    [wheelSize]bucket
	occ        [wheelWords]uint64 // bit set iff bucket non-empty
	wheelCount int                // nodes resident in buckets

	overflow []int32 // min-heap by (at, seq): events beyond the wheel
}

// NewEngine returns an engine with the clock at cycle zero and no pending
// events.
func NewEngine() *Engine {
	e := &Engine{free: noNode}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: noNode, tail: noNode}
	}
	return e
}

// Reset returns the engine to its just-constructed observable state — clock
// at zero, no pending events — while retaining the node slab and overflow
// heap capacity. Every node's sink is cleared so the GC can release it, and
// the free list is rebuilt in slab order so allocation proceeds exactly as
// in a fresh engine.
func (e *Engine) Reset() {
	for w := 0; w < wheelWords; w++ {
		word := e.occ[w]
		for word != 0 {
			bkt := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.buckets[bkt] = bucket{head: noNode, tail: noNode}
		}
		e.occ[w] = 0
	}
	e.free = noNode
	for i := len(e.nodes) - 1; i >= 0; i-- {
		e.nodes[i] = eventNode{next: e.free}
		e.free = int32(i)
	}
	e.overflow = e.overflow[:0]
	e.wheelCount = 0
	e.now, e.seq = 0, 0
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

// Schedule schedules s.OnEvent(at, arg) at the absolute cycle at; the event
// node comes from the engine's pool. Scheduling in the past (at < Now)
// clamps to the current cycle: the event runs before the clock advances
// further.
func (e *Engine) Schedule(at Cycle, s Sink, arg uint64) {
	if at < e.now {
		at = e.now
	}
	i := e.alloc()
	e.nodes[i] = eventNode{at: at, seq: e.seq, arg: arg, sink: s, next: noNode}
	e.seq++
	if at-e.now < wheelSize {
		e.wheelPush(i, at)
	} else {
		e.overflowPush(i)
	}
}

// ScheduleAfter schedules s.OnEvent delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, s Sink, arg uint64) {
	e.Schedule(e.now+delay, s, arg)
}

func (e *Engine) alloc() int32 {
	if e.free != noNode {
		i := e.free
		e.free = e.nodes[i].next
		return i
	}
	e.nodes = append(e.nodes, eventNode{})
	return int32(len(e.nodes) - 1)
}

// freeNode recycles a node, clearing its sink so the GC can release it.
func (e *Engine) freeNode(i int32) {
	n := &e.nodes[i]
	n.sink = nil
	n.next = e.free
	e.free = i
}

// wheelPush appends node i to the bucket for cycle at (FIFO order).
func (e *Engine) wheelPush(i int32, at Cycle) {
	bkt := int(at) & wheelMask
	b := &e.buckets[bkt]
	if b.head == noNode {
		b.head = i
		e.occ[bkt>>6] |= 1 << (uint(bkt) & 63)
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
	e.wheelCount++
}

// bucketPopHead unlinks and returns the bucket's first node.
func (e *Engine) bucketPopHead(bkt int) int32 {
	b := &e.buckets[bkt]
	i := b.head
	b.head = e.nodes[i].next
	if b.head == noNode {
		b.tail = noNode
		e.occ[bkt>>6] &^= 1 << (uint(bkt) & 63)
	}
	e.wheelCount--
	return i
}

// scanBucket finds the occupied bucket closest to the clock. Buckets map
// one-to-one onto the cycles [now, now+wheelSize), so a circular bitmap scan
// starting at now's own bucket visits them in time order.
func (e *Engine) scanBucket() (bkt int, dist int, ok bool) {
	s := int(e.now) & wheelMask
	w0 := s >> 6
	if word := e.occ[w0] & (^uint64(0) << (uint(s) & 63)); word != 0 {
		b := w0<<6 + bits.TrailingZeros64(word)
		return b, b - s, true
	}
	for k := 1; k <= wheelWords; k++ {
		w := (w0 + k) & (wheelWords - 1)
		if e.occ[w] != 0 {
			b := w<<6 + bits.TrailingZeros64(e.occ[w])
			d := b - s
			if d < 0 {
				d += wheelSize
			}
			return b, d, true
		}
	}
	return 0, 0, false
}

// migrate moves overflow events that entered the wheel's horizon into their
// buckets. It must run every time the clock advances, before any callback
// gets a chance to schedule: heap order is (at, seq), and every event a
// callback schedules afterwards has a larger seq, so bucket FIFO order
// equals global (at, seq) order.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 {
		top := e.overflow[0]
		n := &e.nodes[top]
		if n.at-e.now >= wheelSize {
			return
		}
		e.overflowPop()
		n.next = noNode
		e.wheelPush(top, n.at)
	}
}

// pop advances to the next event at or before limit and unlinks it,
// returning its node index. It reports false when no such event exists; the
// clock is only advanced when an event is committed for dispatch.
func (e *Engine) pop(limit Cycle) (int32, bool) {
	if e.wheelCount == 0 {
		if len(e.overflow) == 0 {
			return 0, false
		}
		at := e.nodes[e.overflow[0]].at
		if at > limit {
			return 0, false
		}
		// Jump the clock to the far-future event and pull it (and
		// everything else now in horizon) into the wheel.
		e.now = at
		e.migrate()
	}
	bkt, dist, _ := e.scanBucket()
	t := e.now + Cycle(dist)
	if t > limit {
		return 0, false
	}
	e.now = t
	e.migrate()
	return e.bucketPopHead(bkt), true
}

// dispatch fires node i's sink at the current cycle. The node is recycled
// first so a sink rescheduling itself reuses it without touching the
// allocator.
func (e *Engine) dispatch(i int32) {
	n := &e.nodes[i]
	sink, arg := n.sink, n.arg
	e.freeNode(i)
	sink.OnEvent(e.now, arg)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	i, ok := e.pop(maxCycle)
	if !ok {
		return false
	}
	e.dispatch(i)
	return true
}

// RunUntil dispatches events in order until the queue is empty or the next
// event lies strictly beyond limit. The clock finishes at min(limit, time of
// last dispatched event); events at exactly limit are dispatched.
func (e *Engine) RunUntil(limit Cycle) {
	for {
		i, ok := e.pop(limit)
		if !ok {
			break
		}
		e.dispatch(i)
	}
	if e.now < limit {
		e.now = limit
	}
}

// Drain dispatches every remaining event. Use only in tests or teardown:
// components that perpetually reschedule themselves will never drain.
func (e *Engine) Drain() {
	for e.Step() {
	}
}

// Overflow heap: a plain binary min-heap over node indices ordered by
// (at, seq), implemented directly to avoid container/heap's interface
// boxing on the hot path.

func (e *Engine) overflowLess(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.at != nb.at {
		return na.at < nb.at
	}
	return na.seq < nb.seq
}

func (e *Engine) overflowPush(i int32) {
	e.overflow = append(e.overflow, i)
	c := len(e.overflow) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !e.overflowLess(e.overflow[c], e.overflow[p]) {
			break
		}
		e.overflow[c], e.overflow[p] = e.overflow[p], e.overflow[c]
		c = p
	}
}

func (e *Engine) overflowPop() {
	n := len(e.overflow) - 1
	e.overflow[0] = e.overflow[n]
	e.overflow = e.overflow[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && e.overflowLess(e.overflow[r], e.overflow[c]) {
			c = r
		}
		if !e.overflowLess(e.overflow[c], e.overflow[p]) {
			return
		}
		e.overflow[c], e.overflow[p] = e.overflow[p], e.overflow[c]
		p = c
	}
}
