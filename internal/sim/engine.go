// Package sim provides the discrete-event simulation engine used by every
// other subsystem: a cycle-granular clock and a deterministic event queue.
//
// Components schedule callbacks at absolute cycle times; the engine
// dispatches them in time order, breaking ties by insertion order so that
// runs are fully reproducible.
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
// dispatch perform no heap allocations. Handles carry a generation counter
// to make Cancel on an already-fired (and recycled) event a safe no-op.
// Dead (cancelled) nodes are reclaimed lazily as pops and migrations walk
// over them; compact reclaims them eagerly once they outnumber live ones.
package sim

import "math/bits"

const (
	wheelBits  = 13
	wheelSize  = 1 << wheelBits // cycles of near-future horizon
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64

	// compactMin bounds how small a queue bothers compacting dead events.
	compactMin = 1024
)

const (
	noNode   = int32(-1)
	maxCycle = ^Cycle(0)
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// Event is a callback scheduled to run at a specific cycle.
type Event func(now Cycle)

// Sink is the allocation-free callback form: components implement OnEvent
// once and schedule themselves with Engine.Schedule, passing an arg that
// selects the action. Unlike closures, a Sink scheduling itself repeatedly
// costs zero heap allocations.
type Sink interface {
	OnEvent(now Cycle, arg uint64)
}

// eventNode is one pooled queue entry. Nodes are addressed by slab index;
// next links them into a bucket's FIFO list or the free list.
type eventNode struct {
	at   Cycle
	seq  uint64
	arg  uint64
	fn   Event
	sink Sink
	next int32
	gen  uint32
	dead bool
}

type bucket struct{ head, tail int32 }

// Handle identifies a scheduled event so that it can be cancelled.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The callback and its captured state
// are released immediately.
func (h Handle) Cancel() {
	if h.e == nil {
		return
	}
	e := h.e
	n := &e.nodes[h.idx]
	if n.gen != h.gen || n.dead {
		return
	}
	n.dead = true
	n.fn, n.sink = nil, nil
	e.live--
	e.dead++
	if e.dead > e.live && e.dead >= compactMin {
		e.compact()
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	nodes []eventNode
	free  int32 // free-list head

	buckets    [wheelSize]bucket
	occ        [wheelWords]uint64 // bit set iff bucket non-empty
	wheelCount int                // nodes resident in buckets (incl. dead)

	overflow []int32 // min-heap by (at, seq): events beyond the wheel

	live int // scheduled, non-cancelled events
	dead int // cancelled events awaiting reclamation
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
// heap capacity. Every node's generation is bumped and its callback cleared,
// so Handles from before the Reset cannot cancel recycled events and
// captured state is released to the GC; the free list is rebuilt in slab
// order so allocation proceeds exactly as in a fresh engine.
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
		n := &e.nodes[i]
		n.fn, n.sink = nil, nil
		n.dead = false
		n.gen++
		n.next = e.free
		e.free = int32(i)
	}
	e.overflow = e.overflow[:0]
	e.wheelCount = 0
	e.now, e.seq = 0, 0
	e.live, e.dead = 0, 0
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// (at < Now) clamps to the current cycle: the event runs before the clock
// advances further.
func (e *Engine) At(at Cycle, fn Event) Handle {
	return e.schedule(at, fn, nil, 0)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) Handle {
	return e.schedule(e.now+delay, fn, nil, 0)
}

// Schedule schedules s.OnEvent(at, arg) at the absolute cycle at. This is
// the allocation-free path: no closure is created, and the event node comes
// from the engine's pool.
func (e *Engine) Schedule(at Cycle, s Sink, arg uint64) Handle {
	return e.schedule(at, nil, s, arg)
}

// ScheduleAfter schedules s.OnEvent delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, s Sink, arg uint64) Handle {
	return e.schedule(e.now+delay, nil, s, arg)
}

func (e *Engine) schedule(at Cycle, fn Event, sink Sink, arg uint64) Handle {
	if at < e.now {
		at = e.now
	}
	i := e.alloc()
	n := &e.nodes[i]
	n.at, n.seq, n.arg = at, e.seq, arg
	n.fn, n.sink = fn, sink
	n.next, n.dead = noNode, false
	e.seq++
	e.live++
	if at-e.now < wheelSize {
		e.wheelPush(i, at)
	} else {
		e.overflowPush(i)
	}
	return Handle{e: e, idx: i, gen: n.gen}
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

// freeNode recycles a node. Bumping the generation invalidates outstanding
// handles; clearing the callbacks releases captured state to the GC.
func (e *Engine) freeNode(i int32) {
	n := &e.nodes[i]
	n.fn, n.sink = nil, nil
	n.gen++
	n.next = e.free
	e.free = i
}

// reclaim frees a cancelled node encountered during dispatch or compaction.
func (e *Engine) reclaim(i int32) {
	e.dead--
	e.freeNode(i)
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
		if n.dead {
			e.overflowPop()
			e.reclaim(top)
			continue
		}
		if n.at-e.now >= wheelSize {
			return
		}
		e.overflowPop()
		n.next = noNode
		e.wheelPush(top, n.at)
	}
}

// pop advances to the next live event at or before limit and unlinks it,
// returning its node index. It reports false when no such event exists; the
// clock is only advanced when an event is committed for dispatch.
func (e *Engine) pop(limit Cycle) (int32, bool) {
	for e.live > 0 {
		if e.wheelCount == 0 {
			if len(e.overflow) == 0 {
				return 0, false
			}
			top := e.overflow[0]
			n := &e.nodes[top]
			if n.dead {
				e.overflowPop()
				e.reclaim(top)
				continue
			}
			if n.at > limit {
				return 0, false
			}
			// Jump the clock to the far-future event and pull it (and
			// everything else now in horizon) into the wheel.
			e.now = n.at
			e.migrate()
			continue
		}
		bkt, dist, ok := e.scanBucket()
		if !ok {
			// Unreachable: wheelCount > 0 implies an occupancy bit.
			return 0, false
		}
		t := e.now + Cycle(dist)
		b := &e.buckets[bkt]
		for b.head != noNode {
			i := b.head
			if e.nodes[i].dead {
				e.bucketPopHead(bkt)
				e.reclaim(i)
				continue
			}
			if t > limit {
				return 0, false
			}
			e.now = t
			e.migrate()
			e.bucketPopHead(bkt)
			return i, true
		}
		// Bucket held only cancelled events; rescan.
	}
	return 0, false
}

// dispatch fires node i's callback at the current cycle. The node is
// recycled first so a callback rescheduling itself reuses it without
// touching the allocator.
func (e *Engine) dispatch(i int32) {
	n := &e.nodes[i]
	fn, sink, arg := n.fn, n.sink, n.arg
	e.live--
	e.freeNode(i)
	if sink != nil {
		sink.OnEvent(e.now, arg)
		return
	}
	fn(e.now)
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

// compact reclaims cancelled events eagerly once they outnumber live ones,
// bounding the memory a cancel-heavy workload can pin.
func (e *Engine) compact() {
	for w := 0; w < wheelWords; w++ {
		word := e.occ[w]
		for word != 0 {
			bkt := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.compactBucket(bkt)
		}
	}
	kept := e.overflow[:0]
	for _, i := range e.overflow {
		if e.nodes[i].dead {
			e.reclaim(i)
		} else {
			kept = append(kept, i)
		}
	}
	e.overflow = kept
	for k := len(kept)/2 - 1; k >= 0; k-- {
		e.siftDown(k)
	}
}

func (e *Engine) compactBucket(bkt int) {
	b := &e.buckets[bkt]
	prev := noNode
	for i := b.head; i != noNode; {
		next := e.nodes[i].next
		if e.nodes[i].dead {
			if prev == noNode {
				b.head = next
			} else {
				e.nodes[prev].next = next
			}
			if next == noNode {
				b.tail = prev
			}
			e.wheelCount--
			e.reclaim(i)
		} else {
			prev = i
		}
		i = next
	}
	if b.head == noNode {
		e.occ[bkt>>6] &^= 1 << (uint(bkt) & 63)
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
	last := len(e.overflow) - 1
	e.overflow[0] = e.overflow[last]
	e.overflow = e.overflow[:last]
	if last > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(p int) {
	n := len(e.overflow)
	for {
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
