package obs

import "sweeper/internal/sim"

// Series is a sampled time-series: one row of metric values per sample
// cycle. Counter columns hold cumulative values; exporters difference them.
type Series struct {
	Names  []string    `json:"names"`
	Kinds  []Kind      `json:"kinds"`
	Cycles []uint64    `json:"cycles"`
	Rows   [][]float64 `json:"rows"`
}

// Sampler periodically snapshots a registry into a Series, driven by the
// event engine. It is a sim.Sink: each firing takes one read-only sample and
// reschedules itself, so arming a sampler never perturbs simulation results
// — only the (at, seq) sequence numbers of later events shift, which
// preserves their relative dispatch order.
//
// Cadence is exact by construction: each firing reschedules at now+every, and
// the engine dispatches events at their exact timestamps. A sample landing
// off the expected grid would mean the engine dispatched an event at the
// wrong cycle; the debug build asserts against exactly that drift.
type Sampler struct {
	eng   *sim.Engine
	reg   *Registry
	every uint64
	next  uint64
	done  bool

	s Series
}

// NewSampler creates a sampler reading reg every `every` cycles. Start arms
// it; an un-started sampler costs nothing.
func NewSampler(eng *sim.Engine, reg *Registry, every uint64) *Sampler {
	if every == 0 {
		panic("obs: sampling cadence must be positive")
	}
	return &Sampler{
		eng:   eng,
		reg:   reg,
		every: every,
		s: Series{
			Names: reg.Names(),
			Kinds: reg.Kinds(),
		},
	}
}

// Every returns the sampling cadence in cycles.
func (sp *Sampler) Every() uint64 { return sp.every }

// Start takes an immediate sample and schedules the periodic ones.
func (sp *Sampler) Start() {
	sp.sample(sp.eng.Now())
	sp.next = sp.eng.Now() + sp.every
	sp.eng.ScheduleAfter(sp.every, sp, 0)
}

// OnEvent implements sim.Sink.
func (sp *Sampler) OnEvent(now sim.Cycle, _ uint64) {
	if sp.done {
		return
	}
	if ProbesEnabled && uint64(now) != sp.next {
		Failf("obs: sampler cadence drift: fired at cycle %d, expected %d (every=%d)",
			now, sp.next, sp.every)
	}
	sp.sample(now)
	sp.next = uint64(now) + sp.every
	sp.eng.ScheduleAfter(sp.every, sp, 0)
}

// Finish takes a final sample at cycle now (unless one already landed there)
// and stops rescheduling, so the series always covers the full run.
func (sp *Sampler) Finish(now uint64) {
	if sp.done {
		return
	}
	sp.done = true
	if n := len(sp.s.Cycles); n == 0 || sp.s.Cycles[n-1] < now {
		sp.sample(now)
	}
}

func (sp *Sampler) sample(now uint64) {
	row := make([]float64, sp.reg.Len())
	sp.reg.readInto(now, row)
	sp.s.Cycles = append(sp.s.Cycles, now)
	sp.s.Rows = append(sp.s.Rows, row)
}

// Series returns the sampled data. Call after Finish.
func (sp *Sampler) Series() *Series { return &sp.s }
