package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// These tests target the timing-wheel internals through the public API:
// ordering across the wheel/overflow boundary, pool recycling, and the
// zero-allocation guarantee of the steady state.

// TestSameCycleFIFOAcrossHorizons schedules events for one target cycle from
// three horizons — overflow (beyond the wheel), wheel-direct, and same-cycle
// from a callback — and requires global insertion order to survive
// migration.
func TestSameCycleFIFOAcrossHorizons(t *testing.T) {
	e := NewEngine()
	const target = wheelSize * 3 / 2 // beyond the wheel at schedule time
	var order []int
	rec := func(i int) fn {
		return func(Cycle) { order = append(order, i) }
	}
	at(e, target, rec(0)) // lands in overflow
	at(e, target, rec(1)) // also overflow; must stay behind 0
	// An intermediate event inside the wheel whose callback schedules for
	// the same target cycle after the overflow entries migrated.
	at(e, wheelSize-1, func(Cycle) { at(e, target, rec(2)) })
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
	at(e, 10*wheelSize+7, func(now Cycle) { fired = now })
	if !e.Step() {
		t.Fatal("Step found no event")
	}
	if fired != 10*wheelSize+7 || e.Now() != fired {
		t.Fatalf("fired at %d, Now %d", fired, e.Now())
	}
}

// TestPendingCounter tracks the event count through schedule and dispatch,
// across both the wheel and the overflow heap.
func TestPendingCounter(t *testing.T) {
	e := NewEngine()
	nop := fn(func(Cycle) {})
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(100+i), nop, 0)
	}
	e.Schedule(wheelSize*4, nop, 0) // overflow resident
	if e.Pending() != 11 {
		t.Fatalf("Pending() = %d, want 11", e.Pending())
	}
	e.Step()
	if e.Pending() != 10 {
		t.Fatalf("Pending() after dispatch = %d, want 10", e.Pending())
	}
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", e.Pending())
	}
}

// TestZeroAllocSteadyState asserts that once the pool is warm, scheduling
// and dispatching a self-rescheduling Sink allocates nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	s := &countingSink{e: e}
	e.Schedule(0, s, 7)
	e.Step() // warm the pool
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
	seq uint64
	evs []refEvent
	now Cycle
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
// model with identical random schedules — including deltas straddling the
// wheel horizon — and requires identical dispatch sequences.
func TestWheelMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		ref := &refEngine{}
		var got []uint64 // seq per dispatch, in order

		var schedule func(c Cycle)
		schedule = func(c Cycle) {
			seq := ref.schedule(c)
			at(e, c, func(now Cycle) {
				got = append(got, seq)
				// Sometimes reschedule onward with a horizon-straddling
				// delta.
				if rng.Intn(4) == 0 {
					schedule(now + Cycle(rng.Intn(3*wheelSize)))
				}
			})
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
			c := Cycle(rng.Intn(6 * wheelSize))
			times[i] = c
			at(e, c, func(now Cycle) { fired = append(fired, now) })
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
