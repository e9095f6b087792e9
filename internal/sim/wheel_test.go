package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// These tests target the timing-wheel internals through the public API:
// ordering across the wheel/overflow boundary, cancellation during dispatch,
// pool recycling, and the zero-allocation guarantee of the steady state.

// TestSameCycleFIFOAcrossHorizons schedules events for one target cycle from
// three horizons — overflow (beyond the wheel), wheel-direct, and same-cycle
// from a callback — and requires global insertion order to survive
// migration.
func TestSameCycleFIFOAcrossHorizons(t *testing.T) {
	e := NewEngine()
	const target = wheelSize * 3 / 2 // beyond the wheel at schedule time
	var order []int
	rec := func(i int) Event {
		return func(Cycle) { order = append(order, i) }
	}
	e.At(target, rec(0)) // lands in overflow
	e.At(target, rec(1)) // also overflow; must stay behind 0
	// An intermediate event inside the wheel whose callback schedules for
	// the same target cycle after the overflow entries migrated.
	e.At(wheelSize-1, func(Cycle) { e.At(target, rec(2)) })
	e.Drain()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("FIFO across horizons violated: order = %v", order)
	}
}

// TestFarFutureJump verifies the clock jumps straight to a lone far-future
// event instead of idling through empty wheel revolutions.
func TestFarFutureJump(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.At(10*wheelSize+7, func(now Cycle) { fired = now })
	if !e.Step() {
		t.Fatal("Step found no event")
	}
	if fired != 10*wheelSize+7 || e.Now() != fired {
		t.Fatalf("fired at %d, Now %d", fired, e.Now())
	}
}

// TestCancelDuringDispatch cancels events from inside a callback running at
// the same cycle and at an earlier cycle; neither may fire.
func TestCancelDuringDispatch(t *testing.T) {
	e := NewEngine()
	var fired []string
	var hSame, hLater, hFar Handle
	e.At(100, func(Cycle) {
		hSame.Cancel()
		hLater.Cancel()
		hFar.Cancel()
	})
	hSame = e.At(100, func(Cycle) { fired = append(fired, "same") })
	hLater = e.At(150, func(Cycle) { fired = append(fired, "later") })
	hFar = e.At(wheelSize*2, func(Cycle) { fired = append(fired, "far") })
	e.At(200, func(Cycle) { fired = append(fired, "keep") })
	e.Drain()
	if len(fired) != 1 || fired[0] != "keep" {
		t.Fatalf("fired = %v, want [keep]", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

// TestCancelOwnHandleAfterFiring: a callback cancelling its own (already
// recycled) handle must not disturb whatever event reuses the node.
func TestCancelOwnHandleAfterFiring(t *testing.T) {
	e := NewEngine()
	var h Handle
	n := 0
	h = e.At(10, func(Cycle) {
		h.Cancel() // self, already fired: no-op even after recycling
		e.At(20, func(Cycle) { n++ })
		h.Cancel() // might now name the reused node; still a no-op
	})
	e.Drain()
	if n != 1 {
		t.Fatalf("follow-up event fired %d times, want 1", n)
	}
}

// TestPendingCounter tracks the live-event count through schedule, cancel
// and dispatch.
func TestPendingCounter(t *testing.T) {
	e := NewEngine()
	nop := Event(func(Cycle) {})
	hs := make([]Handle, 10)
	for i := range hs {
		hs[i] = e.At(Cycle(100+i), nop)
	}
	e.At(wheelSize*4, nop) // overflow resident
	if e.Pending() != 11 {
		t.Fatalf("Pending() = %d, want 11", e.Pending())
	}
	hs[3].Cancel()
	hs[3].Cancel() // double-cancel must not double-count
	if e.Pending() != 10 {
		t.Fatalf("Pending() after cancel = %d, want 10", e.Pending())
	}
	e.Step()
	if e.Pending() != 9 {
		t.Fatalf("Pending() after dispatch = %d, want 9", e.Pending())
	}
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", e.Pending())
	}
}

// TestCancelledEventsReclaimed verifies cancel-heavy workloads recycle nodes
// instead of accumulating dead entries until dispatch reaches them.
func TestCancelledEventsReclaimed(t *testing.T) {
	e := NewEngine()
	nop := Event(func(Cycle) {})
	// One live far-future anchor keeps the queue non-empty.
	e.At(wheelSize*8, nop)
	for i := 0; i < 10*compactMin; i++ {
		h := e.At(Cycle(200+i%512), nop)
		h.Cancel()
	}
	if e.dead >= compactMin {
		t.Fatalf("dead events not compacted: %d retained", e.dead)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	if got := len(e.nodes); got > 4*compactMin {
		t.Fatalf("node slab grew to %d entries despite compaction", got)
	}
	e.Drain()
	if e.Now() != wheelSize*8 {
		t.Fatalf("anchor fired at %d", e.Now())
	}
}

// TestZeroAllocSteadyState asserts the tentpole guarantee: once the pool is
// warm, scheduling and dispatching events allocates nothing — for the
// closure form with a pre-built callback, and for the Sink form.
func TestZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var tick Event
	tick = func(now Cycle) { e.At(now+5, tick) }
	e.At(0, tick)
	e.Step() // warm the pool
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("closure steady state: %.2f allocs/op, want 0", avg)
	}

	s := &countingSink{e: e}
	e.Schedule(e.Now()+1, s, 7)
	e.Step()
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("sink steady state: %.2f allocs/op, want 0", avg)
	}
	if s.n == 0 || s.lastArg != 7 {
		t.Fatalf("sink not driven: n=%d arg=%d", s.n, s.lastArg)
	}
}

type countingSink struct {
	e       *Engine
	n       int
	lastArg uint64
}

func (s *countingSink) OnEvent(now Cycle, arg uint64) {
	s.n++
	s.lastArg = arg
	s.e.Schedule(now+3, s, arg)
}

// refEngine is a naive reference model: a slice kept in (at, seq) order.
type refEngine struct {
	seq  uint64
	evs  []refEvent
	now  Cycle
	gone map[uint64]bool
}

type refEvent struct {
	at  Cycle
	seq uint64
}

func (r *refEngine) schedule(at Cycle) uint64 {
	if at < r.now {
		at = r.now
	}
	s := r.seq
	r.seq++
	r.evs = append(r.evs, refEvent{at: at, seq: s})
	return s
}

func (r *refEngine) next() (refEvent, bool) {
	best := -1
	for i, ev := range r.evs {
		if r.gone[ev.seq] {
			continue
		}
		if best < 0 || ev.at < r.evs[best].at ||
			(ev.at == r.evs[best].at && ev.seq < r.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return refEvent{}, false
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.at
	return ev, true
}

// TestWheelMatchesReferenceModel drives the wheel and a naive sorted-slice
// model with identical random schedules — including cancels and deltas
// straddling the wheel horizon — and requires identical dispatch sequences.
func TestWheelMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		ref := &refEngine{gone: make(map[uint64]bool)}
		var got []uint64 // seq per dispatch, in order

		pending := make(map[uint64]Handle)
		var schedule func(at Cycle)
		schedule = func(at Cycle) {
			seq := ref.schedule(at)
			h := e.At(at, func(now Cycle) {
				got = append(got, seq)
				delete(pending, seq)
				// Sometimes reschedule onward with a horizon-straddling
				// delta, sometimes cancel a pending event. Both models
				// cancel the same seq, so map iteration order is
				// irrelevant.
				switch rng.Intn(4) {
				case 0:
					schedule(now + Cycle(rng.Intn(3*wheelSize)))
				case 1:
					for s, hh := range pending {
						ref.gone[s] = true
						hh.Cancel()
						delete(pending, s)
						break
					}
				}
			})
			pending[seq] = h
		}
		for i := 0; i < 80; i++ {
			schedule(Cycle(rng.Intn(4 * wheelSize)))
		}
		for i := 0; i < 400 && e.Step(); i++ {
		}

		var want []uint64
		for range got {
			ev, ok := ref.next()
			if !ok {
				break
			}
			want = append(want, ev.seq)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d events, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch %d: got seq %d, reference %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestRandomScheduleWithOverflow extends the dispatch-order property across
// deltas far beyond the wheel horizon.
func TestRandomScheduleWithOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(300)
		times := make([]Cycle, n)
		var fired []Cycle
		for i := range times {
			at := Cycle(rng.Intn(6 * wheelSize))
			times[i] = at
			e.At(at, func(now Cycle) { fired = append(fired, now) })
		}
		e.Drain()
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d of %d", trial, len(fired), n)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if fired[i] != times[i] {
				t.Fatalf("trial %d: timestamps differ at %d: %d vs %d",
					trial, i, fired[i], times[i])
			}
		}
	}
}
