package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsDispatchInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, at := range []Cycle{30, 10, 20} {
		at := at
		e.At(at, func(now Cycle) { order = append(order, now) })
	}
	e.Drain()
	want := []Cycle{10, 20, 30}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameCycleEventsDispatchInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Cycle) { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order = %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.At(50, func(now Cycle) {
		e.After(25, func(now Cycle) { fired = now })
	})
	e.Drain()
	if fired != 75 {
		t.Fatalf("After fired at %d, want 75", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.At(100, func(now Cycle) {
		e.At(10, func(now Cycle) { fired = now }) // in the past
	})
	e.Drain()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamp to 100", fired)
	}
}

func TestCancelPreventsDispatch(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, func(Cycle) { fired = true })
	h.Cancel()
	e.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling twice is a no-op.
	h.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(5, func(Cycle) { got = append(got, 1) })
	h := e.At(6, func(Cycle) { got = append(got, 2) })
	e.At(7, func(Cycle) { got = append(got, 3) })
	h.Cancel()
	e.Drain()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	for _, at := range []Cycle{10, 20, 30, 40} {
		e.At(at, func(now Cycle) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
}

func TestRunUntilInclusiveAtLimit(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(25, func(Cycle) { fired = true })
	e.RunUntil(25)
	if !fired {
		t.Fatal("event at exactly the limit did not fire")
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", e.Now())
	}
}

func TestStepDispatchesSingleEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func(Cycle) { n++ })
	e.At(2, func(Cycle) { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n = %d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n = %d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSelfReschedulingChain(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now Cycle)
	tick = func(now Cycle) {
		count++
		if count < 100 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	e.RunUntil(2000)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 2000 {
		t.Fatalf("Now() = %d, want 2000", e.Now())
	}
}

// Property: for any random schedule, dispatch order is a non-decreasing
// sequence of timestamps covering every non-cancelled event.
func TestRandomScheduleDispatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(200)
		times := make([]Cycle, n)
		var fired []Cycle
		for i := range times {
			at := Cycle(rng.Intn(1000))
			times[i] = at
			e.At(at, func(now Cycle) { fired = append(fired, now) })
		}
		e.Drain()
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d of %d", trial, len(fired), n)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: dispatch order not sorted: %v", trial, fired)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if fired[i] != times[i] {
				t.Fatalf("trial %d: timestamps differ at %d", trial, i)
			}
		}
	}
}

// TestResetReproduces stops a workload with events still pending, Resets,
// and reruns it: the engine must come back empty at cycle zero, reproduce
// the first trace exactly (the pooled-machine contract), and ignore a
// Handle from before the Reset whose node the rerun reuses.
func TestResetReproduces(t *testing.T) {
	type firing struct {
		At Cycle
		ID int
	}
	const limit = 6 * wheelSize
	e := NewEngine()
	var trace []firing
	// run schedules a sentinel beyond limit first, so it takes node 0, then
	// self-rescheduling chains whose gaps straddle the wheel horizon.
	run := func() Handle {
		trace = nil
		rng := rand.New(rand.NewSource(3))
		sentinel := e.At(limit+1, func(now Cycle) { trace = append(trace, firing{now, -1}) })
		id := 0
		var spawn func(at Cycle, budget int)
		spawn = func(at Cycle, budget int) {
			my := id
			id++
			e.At(at, func(now Cycle) {
				trace = append(trace, firing{now, my})
				if budget > 0 {
					spawn(now+Cycle(rng.Intn(2*wheelSize)), budget-1)
				}
			})
		}
		for i := 0; i < 20; i++ {
			spawn(Cycle(rng.Intn(wheelSize)), 4)
		}
		e.RunUntil(limit)
		return sentinel
	}
	stale := run()
	first := trace
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left now=%d pending=%d", e.Now(), e.Pending())
	}
	sentinel := run()
	if !reflect.DeepEqual(trace, first) {
		t.Fatalf("trace not reproduced after Reset (len %d vs %d)", len(trace), len(first))
	}
	if sentinel.idx != stale.idx {
		t.Fatalf("rerun placed the sentinel on node %d, the stale handle names node %d", sentinel.idx, stale.idx)
	}
	pending := e.Pending()
	stale.Cancel()
	if e.Pending() != pending {
		t.Fatalf("a pre-Reset handle cancelled an event of the new run")
	}
	n := len(trace)
	e.Drain()
	if trace[n] != (firing{limit + 1, -1}) {
		t.Fatalf("first firing past the limit is %+v, want the sentinel at %d", trace[n], limit+1)
	}
}
