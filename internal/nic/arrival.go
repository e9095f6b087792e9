package nic

import (
	"fmt"
	"math"
	"math/rand"

	"sweeper/internal/obs"
	"sweeper/internal/registry"
	"sweeper/internal/sim"
)

// This file is the arrival-process layer: a registry of named open-loop
// packet-arrival generators (mirroring the workload registry), the shared
// open-loop skeleton they build on, and its two gap laws — Poisson and a
// 2-state MMPP.

// Registered arrival-process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalMMPP    = "mmpp"
)

// ArrivalConfig selects and tunes an arrival process. All fields are plain
// scalars so machine.Config stays comparable. The zero value is the
// stationary Poisson process every figure used before this layer existed.
type ArrivalConfig struct {
	// Process names the generator in the arrival registry ("poisson",
	// "mmpp", or any registered name); empty selects Poisson.
	Process string
	// BurstRatio is the MMPP on/off rate ratio λ_on/λ_off (a finite
	// number ≥ 1; 0 selects the default 8). 1 degenerates to Poisson.
	BurstRatio float64
	// BurstDwellCycles is the MMPP mean dwell time per state in cycles
	// (0 selects the default 131072).
	BurstDwellCycles uint64
}

const (
	defaultBurstRatio = 8
	defaultBurstDwell = 131_072
)

// processName resolves the registry name, defaulting to Poisson.
func (c ArrivalConfig) processName() string {
	if c.Process == "" {
		return ArrivalPoisson
	}
	return c.Process
}

// Validate reports configuration errors without building a generator (the
// machine validates configs long before assembly; checks that need the
// offered load surface at construction instead, see ArrivalSpec).
func (c ArrivalConfig) Validate() error {
	reg, err := arrivals.Get(c.processName())
	if err != nil {
		return fmt.Errorf("nic: %w", err)
	}
	if r := c.BurstRatio; r != 0 && !(r >= 1 && r <= math.MaxFloat64) {
		return fmt.Errorf("nic: arrival BurstRatio %g must be a finite number ≥ 1", r)
	}
	if reg.Validate != nil {
		return reg.Validate(c)
	}
	return nil
}

// InjectFunc delivers one generated arrival into the machine's NIC.
// Implementations must be rng-free, so wrapping one (to time injection, say)
// cannot change the generator's draw order.
type InjectFunc func(now uint64, core int, size uint64, tag uint64)

// ArrivalSpec is the machine-derived parameterization every arrival process
// is built from: ring fan-out, default packet size, the mean inter-arrival
// gap realizing the configured offered load, the run's seed, and the
// process selection itself.
type ArrivalSpec struct {
	// Cores restricts arrivals to rings [0, Cores).
	Cores int
	// Size is the default packet size in bytes (also the ring slot
	// size).
	Size uint64
	// MeanGap is the target mean inter-arrival gap in cycles across the
	// whole NIC.
	MeanGap float64
	// Seed makes the process reproducible.
	Seed int64
	// Config carries the process selection and its knobs.
	Config ArrivalConfig
}

func (s ArrivalSpec) validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("nic: arrival spec needs positive core count, got %d", s.Cores)
	}
	if s.MeanGap <= 0 {
		return fmt.Errorf("nic: mean inter-arrival gap must be positive, got %g", s.MeanGap)
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Config.processName() == ArrivalMMPP {
		// mmppGaps.next switches state until a gap fits in the dwell;
		// a burst-state gap far above the dwell (or infinite) makes that
		// loop spin for gap/dwell switches per arrival.
		gap, dwell := mmppShape(s)
		if !(gap[1] <= dwell) {
			return fmt.Errorf("nic: mmpp burst-state mean gap %g cycles exceeds the mean dwell %g cycles; raise the offered load or the dwell, or lower the burst ratio",
				gap[1], dwell)
		}
	}
	return nil
}

// ArrivalGen is one open-loop arrival process, scheduled on the event
// engine. Generators are single-run like machines; Reset restores the
// just-constructed state for pooled reuse.
type ArrivalGen interface {
	// Start schedules the first arrival.
	Start()
	// Stop halts generation after any already-scheduled arrival.
	Stop()
	// Reset restores the generator to its just-constructed state under a
	// new spec with the same process name.
	Reset(spec ArrivalSpec) error
	// SetSizer installs a per-packet size function of the tag.
	SetSizer(fn func(tag uint64) uint64)
	// Offered returns injection attempts so far (including arrivals
	// dropped at full rings).
	Offered() uint64
	// ResetCounters zeroes the offered-load counter.
	ResetCounters()
	// RegisterMetrics exposes the generator's counters.
	RegisterMetrics(r *obs.Registry)
}

// ArrivalRegistration describes one arrival process in the registry.
type ArrivalRegistration struct {
	// Name keys the process ("poisson", "mmpp", ...).
	Name string
	// New builds a generator delivering arrivals through inject.
	New func(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) (ArrivalGen, error)
	// Validate, when non-nil, statically checks the process's knobs.
	Validate func(cfg ArrivalConfig) error
}

var arrivals = registry.New[ArrivalRegistration]("arrival process")

// RegisterArrival adds an arrival process to the registry. A missing
// constructor, or an empty or duplicate name, panics: registration is an
// init-time programming act, like workload.Register.
func RegisterArrival(r ArrivalRegistration) {
	if r.New == nil {
		panic(fmt.Sprintf("nic: arrival process %q registered without a constructor", r.Name))
	}
	arrivals.Add(r.Name, r)
}

// LookupArrival finds a registered arrival process by name.
func LookupArrival(name string) (ArrivalRegistration, bool) { return arrivals.Lookup(name) }

// ArrivalNames lists the registered arrival processes in sorted order.
func ArrivalNames() []string { return arrivals.Names() }

// NewArrival builds the spec's configured arrival process through the
// registry.
func NewArrival(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) (ArrivalGen, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	reg, _ := LookupArrival(spec.Config.processName())
	return reg.New(eng, spec, inject)
}

func init() {
	RegisterArrival(ArrivalRegistration{
		Name: ArrivalPoisson,
		New: func(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) (ArrivalGen, error) {
			return newOpenLoop(eng, spec, inject, &poissonGaps{})
		},
	})
	RegisterArrival(ArrivalRegistration{
		Name: ArrivalMMPP,
		New: func(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) (ArrivalGen, error) {
			return newOpenLoop(eng, spec, inject, &mmppGaps{})
		},
	})
}

// gapProcess produces successive inter-arrival gaps in cycles. reseed
// re-derives the process state from a validated spec.
type gapProcess interface {
	next(rng *rand.Rand) float64
	reseed(spec ArrivalSpec, rng *rand.Rand)
}

// openLoop is the shared skeleton of rate-driven arrival processes: a
// self-rescheduling event whose gaps come from a pluggable gapProcess. Under
// Poisson it reproduces the original PoissonGen draw for draw: one
// ExpFloat64 at Start, then Intn/Uint64/ExpFloat64 per arrival — the order
// the committed goldens depend on.
type openLoop struct {
	eng    *sim.Engine
	rng    *rand.Rand
	inject InjectFunc
	gaps   gapProcess

	size  uint64
	sizer func(tag uint64) uint64
	cores int

	stopped bool
	offered uint64
}

func newOpenLoop(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc, gaps gapProcess) (*openLoop, error) {
	g := &openLoop{
		eng:    eng,
		rng:    rand.New(rand.NewSource(spec.Seed)),
		inject: inject,
		gaps:   gaps,
	}
	g.apply(spec)
	return g, nil
}

// apply derives the generator state from a validated spec.
func (g *openLoop) apply(spec ArrivalSpec) {
	g.size = spec.Size
	g.sizer = nil
	g.cores = spec.Cores
	g.stopped = false
	g.offered = 0
	g.gaps.reseed(spec, g.rng)
}

// Reset restores the generator under a new spec, reusing its rand source.
func (g *openLoop) Reset(spec ArrivalSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	g.rng.Seed(spec.Seed)
	g.apply(spec)
	return nil
}

// SetSizer installs a per-packet size function of the tag (e.g. small GET
// requests vs item-sized SETs), overriding the fixed size.
func (g *openLoop) SetSizer(fn func(tag uint64) uint64) { g.sizer = fn }

// Start schedules the first arrival.
func (g *openLoop) Start() { g.scheduleNext() }

// Stop halts generation after any already-scheduled arrival.
func (g *openLoop) Stop() { g.stopped = true }

// Offered returns the number of injection attempts so far (including
// arrivals dropped at full rings).
func (g *openLoop) Offered() uint64 { return g.offered }

// ResetCounters zeroes the offered-load counter.
func (g *openLoop) ResetCounters() { g.offered = 0 }

// RegisterMetrics exposes the generator's offered-load counter, plus the
// MMPP burst-state gauge when the gap process is modulated.
func (g *openLoop) RegisterMetrics(r *obs.Registry) {
	r.Counter("gen.offered", func() uint64 { return g.offered })
	if m, ok := g.gaps.(*mmppGaps); ok {
		r.Gauge("gen.mmpp_state", func(uint64) float64 { return float64(m.state) })
		r.Counter("gen.mmpp_on_arrivals", func() uint64 { return m.arrivals[1] })
	}
}

// OnEvent implements sim.Sink.
func (g *openLoop) OnEvent(now sim.Cycle, _ uint64) { g.arrive(now) }

func (g *openLoop) scheduleNext() {
	g.eng.ScheduleAfter(uint64(g.gaps.next(g.rng)), g, 0)
}

func (g *openLoop) arrive(now uint64) {
	if g.stopped {
		return
	}
	core := g.rng.Intn(g.cores)
	tag := g.rng.Uint64()
	g.offered++
	size := g.size
	if g.sizer != nil {
		size = g.sizer(tag)
	}
	g.inject(now, core, size, tag)
	g.scheduleNext()
}

// poissonGaps draws i.i.d. exponential gaps: the stationary Poisson process.
type poissonGaps struct {
	meanGap float64
}

func (p *poissonGaps) reseed(spec ArrivalSpec, _ *rand.Rand) { p.meanGap = spec.MeanGap }

func (p *poissonGaps) next(rng *rand.Rand) float64 { return rng.ExpFloat64() * p.meanGap }

// mmppGaps is a 2-state Markov-modulated Poisson process: exponential dwell
// times alternate a quiet state 0 and a burst state 1 whose arrival rates
// differ by the configured ratio R, with the time-average rate pinned to
// the spec's mean (equal mean dwells ⇒ λ_off = 2λ̄/(1+R), λ_on = R·λ_off).
// State switches mid-gap discard the drawn residual — valid by
// memorylessness of the exponential — so the produced gap is the exact
// first-arrival time of the modulated process.
type mmppGaps struct {
	gap   [2]float64 // mean inter-arrival gap per state
	dwell float64    // mean dwell per state
	state int
	left  float64 // dwell remaining in the current state

	// Per-state accounting for the statistical test harness and metrics.
	arrivals [2]uint64
	cycles   [2]float64
}

// mmppShape resolves an MMPP spec's mean gap per state and its mean dwell,
// applying the defaults.
func mmppShape(spec ArrivalSpec) (gap [2]float64, dwell float64) {
	ratio := spec.Config.BurstRatio
	if ratio == 0 {
		ratio = defaultBurstRatio
	}
	d := spec.Config.BurstDwellCycles
	if d == 0 {
		d = defaultBurstDwell
	}
	gap[0] = spec.MeanGap * (1 + ratio) / 2
	gap[1] = gap[0] / ratio
	return gap, float64(d)
}

func (m *mmppGaps) reseed(spec ArrivalSpec, rng *rand.Rand) {
	m.gap, m.dwell = mmppShape(spec)
	m.state = 0
	m.left = rng.ExpFloat64() * m.dwell
	m.arrivals = [2]uint64{}
	m.cycles = [2]float64{}
}

func (m *mmppGaps) next(rng *rand.Rand) float64 {
	var total float64
	for {
		gap := rng.ExpFloat64() * m.gap[m.state]
		if gap <= m.left {
			m.left -= gap
			m.cycles[m.state] += gap
			m.arrivals[m.state]++
			return total + gap
		}
		total += m.left
		m.cycles[m.state] += m.left
		m.state = 1 - m.state
		m.left = rng.ExpFloat64() * m.dwell
	}
}
