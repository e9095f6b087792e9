package sim

import "testing"

// The benchmarks model the engine's real workload: many concurrent
// self-rescheduling chains (cores, generators) with short scheduling deltas,
// plus occasional far-future events. They are written against the public
// API only, so before/after numbers across engine rewrites are directly
// comparable.

// chain is a component that reschedules itself period cycles ahead on
// every event, the way cores and generators do.
type chain struct {
	e      *Engine
	period Cycle
	n      int
}

func (c *chain) OnEvent(now Cycle, _ uint64) {
	c.n++
	c.e.Schedule(now+c.period, c, 0)
}

// BenchmarkEngineScheduleDispatch measures pure schedule+dispatch churn:
// one event in flight, rescheduled a short delta ahead each dispatch.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	c := &chain{e: e, period: 3}
	e.Schedule(0, c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(c.n), "events")
}

// BenchmarkEngineChains64 runs 64 interleaved self-rescheduling chains with
// co-prime periods, the shape of a full machine's steady state.
func BenchmarkEngineChains64(b *testing.B) {
	e := NewEngine()
	periods := []Cycle{3, 5, 7, 11, 13, 17, 19, 23}
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), &chain{e: e, period: periods[i%len(periods)]}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// farTicker reschedules itself a short delta ahead and, every 16 cycles,
// also schedules a no-op event (arg 1) far beyond the wheel.
type farTicker struct{ e *Engine }

func (f *farTicker) OnEvent(now Cycle, arg uint64) {
	if arg == 1 {
		return
	}
	if now%16 == 0 {
		f.e.Schedule(now+25_000, f, 1)
	}
	f.e.Schedule(now+4, f, 0)
}

// BenchmarkEngineFarFuture mixes short deltas with far-future events
// (refresh-interval scale), exercising the long-horizon path.
func BenchmarkEngineFarFuture(b *testing.B) {
	e := NewEngine()
	e.Schedule(0, &farTicker{e: e}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
