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
// open-loop skeleton they build on, and the stationary processes — Poisson
// and a 2-state MMPP — plus the diurnal envelope and per-flow tagging that
// modulate any of them. The trace-replay process lives in trace.go.

// Registered arrival-process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalMMPP    = "mmpp"
	ArrivalTrace   = "trace"
)

// ArrivalConfig selects and tunes an arrival process. All fields are plain
// scalars so machine.Config stays comparable. The zero value is the
// stationary Poisson process every figure used before this layer existed.
type ArrivalConfig struct {
	// Process names the generator in the arrival registry ("poisson",
	// "mmpp", "trace", or any registered name); empty selects Poisson.
	Process string
	// TracePath is the trace file replayed by the "trace" process
	// (binary SWPT or CSV; see ParseTrace). Replay loops the trace and
	// rescales its timestamps so the mean rate matches the configured
	// offered load.
	TracePath string
	// BurstRatio is the MMPP on/off rate ratio λ_on/λ_off (≥ 1; 0
	// selects the default 8). 1 degenerates to Poisson.
	BurstRatio float64
	// BurstDwellCycles is the MMPP mean dwell time per state in cycles
	// (0 selects the default 131072).
	BurstDwellCycles uint64
	// DiurnalPeriodCycles and DiurnalAmplitude superimpose a sinusoidal
	// envelope on the process rate: rate(t) = mean · (1 + A·sin(2πt/P)).
	// Amplitude 0 disables the envelope; the trace process rejects it
	// (traces carry their own time structure).
	DiurnalPeriodCycles uint64
	DiurnalAmplitude    float64
	// Flows spreads arrivals over a fixed population of connections:
	// each packet draws a flow id in [0, Flows), its ring follows an
	// RSS-style hash of the flow (so few flows skew core load, many
	// approach uniform), and the tag's high 32 bits are flow-stable
	// while the low 32 stay per-packet. 0 keeps the legacy behaviour of
	// a fresh uniformly-random ring and tag per packet.
	Flows int
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
// machine validates configs long before assembly; file I/O errors of the
// trace process surface at construction instead).
func (c ArrivalConfig) Validate() error {
	reg, err := arrivals.Get(c.processName())
	if err != nil {
		return fmt.Errorf("nic: %w", err)
	}
	switch {
	case c.BurstRatio != 0 && c.BurstRatio < 1:
		return fmt.Errorf("nic: arrival BurstRatio %g must be ≥ 1", c.BurstRatio)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("nic: arrival DiurnalAmplitude %g outside [0,1)", c.DiurnalAmplitude)
	case c.DiurnalAmplitude > 0 && c.DiurnalPeriodCycles == 0:
		return fmt.Errorf("nic: arrival DiurnalAmplitude needs DiurnalPeriodCycles > 0")
	case c.Flows < 0:
		return fmt.Errorf("nic: arrival Flows %d must be non-negative", c.Flows)
	}
	if reg.Validate != nil {
		return reg.Validate(c)
	}
	return nil
}

// InjectFunc delivers one generated arrival. Standalone machines inject
// into their own NIC; the cluster front end picks a destination node first.
// Implementations must be rng-free so generator draw order is identical in
// both placements.
type InjectFunc func(now uint64, core int, size uint64, tag uint64)

// ArrivalSpec is the machine-derived parameterization every arrival process
// is built from: ring fan-out, default packet size, the mean inter-arrival
// gap realizing the configured offered load, the run's seed, and the
// process selection itself.
type ArrivalSpec struct {
	// Cores restricts arrivals to rings [0, Cores).
	Cores int
	// Size is the default packet size in bytes (also the ring slot
	// size, so trace record sizes clamp to it).
	Size uint64
	// MeanGap is the target mean inter-arrival gap in cycles across the
	// whole NIC (cluster front ends pass the rack-wide gap).
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
	return s.Config.Validate()
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
	// SetSizer installs a per-packet size function of the tag; processes
	// whose arrivals carry intrinsic sizes (trace replay) ignore it.
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
// re-derives the process state from a spec whose diurnal boost has already
// been folded into MeanGap.
type gapProcess interface {
	next(rng *rand.Rand) float64
	reseed(spec ArrivalSpec, rng *rand.Rand)
}

// openLoop is the shared skeleton of rate-driven arrival processes: a
// self-rescheduling event whose gaps come from a pluggable gapProcess,
// optionally thinned against a diurnal envelope and spread over a fixed
// flow population. With the zero-valued ArrivalConfig it reproduces the
// original PoissonGen draw for draw: one ExpFloat64 at Start, then
// Intn/Uint64/ExpFloat64 per arrival — the order the cluster front end and
// the committed goldens depend on.
type openLoop struct {
	eng    *sim.Engine
	rng    *rand.Rand
	inject InjectFunc
	gaps   gapProcess

	size  uint64
	sizer func(tag uint64) uint64
	cores int

	// Flow population (Flows > 0): flowSeed salts the per-flow hash.
	flows    int
	flowSeed uint64

	// Diurnal envelope (amp > 0): candidates are generated at the
	// boosted rate mean·(1+amp) and accepted with probability
	// envelope(t)/(1+amp) — exact thinning of the sinusoidal rate.
	amp    float64
	period float64

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
	cfg := spec.Config
	g.size = spec.Size
	g.sizer = nil
	g.cores = spec.Cores
	g.flows = cfg.Flows
	g.flowSeed = splitmix64(uint64(spec.Seed) ^ 0x9e3779b97f4a7c15)
	g.amp = cfg.DiurnalAmplitude
	g.period = float64(cfg.DiurnalPeriodCycles)
	g.stopped = false
	g.offered = 0
	if g.amp > 0 {
		spec.MeanGap /= 1 + g.amp
	}
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

// envelope is the normalized diurnal acceptance probability at cycle t.
func (g *openLoop) envelope(t uint64) float64 {
	return (1 + g.amp*math.Sin(2*math.Pi*float64(t)/g.period)) / (1 + g.amp)
}

func (g *openLoop) arrive(now uint64) {
	if g.stopped {
		return
	}
	if g.amp > 0 && g.rng.Float64() >= g.envelope(now) {
		// Thinned: this candidate falls outside the envelope.
		g.scheduleNext()
		return
	}
	var core int
	var tag uint64
	if g.flows > 0 {
		fh := splitmix64(g.flowSeed ^ uint64(g.rng.Intn(g.flows)))
		core = int(fh % uint64(g.cores))
		tag = fh&^uint64(1<<32-1) | g.rng.Uint64()&(1<<32-1)
	} else {
		core = g.rng.Intn(g.cores)
		tag = g.rng.Uint64()
	}
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

func (m *mmppGaps) reseed(spec ArrivalSpec, rng *rand.Rand) {
	ratio := spec.Config.BurstRatio
	if ratio == 0 {
		ratio = defaultBurstRatio
	}
	dwell := spec.Config.BurstDwellCycles
	if dwell == 0 {
		dwell = defaultBurstDwell
	}
	m.gap[0] = spec.MeanGap * (1 + ratio) / 2
	m.gap[1] = m.gap[0] / ratio
	m.dwell = float64(dwell)
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

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash
// for flow-stable core and tag derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
