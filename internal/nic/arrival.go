package nic

import (
	"fmt"
	"math/rand"

	"sweeper/internal/obs"
	"sweeper/internal/registry"
	"sweeper/internal/sim"
)

// This file is the arrival-process layer: a registry of named open-loop
// packet-arrival generators (mirroring the workload registry) and the
// stationary Poisson process, its one shipped entry. The registry stays so
// harnesses can register instrumented copies of the Poisson process under
// names of their own.

// ArrivalPoisson is the registered name of the Poisson process.
const ArrivalPoisson = "poisson"

// ArrivalConfig selects an arrival process. Its field is a plain string, so
// machine.Config stays comparable. The zero value is the stationary Poisson
// process every figure uses.
type ArrivalConfig struct {
	// Process names the generator in the arrival registry ("poisson" or
	// any registered name); empty selects Poisson.
	Process string
}

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
	// Config carries the process selection.
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
	// Name keys the process ("poisson", ...).
	Name string
	// New builds a generator delivering arrivals through inject.
	New func(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) (ArrivalGen, error)
	// Validate, when non-nil, statically checks the process's config.
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
			return newOpenLoop(eng, spec, inject), nil
		},
	})
}

// openLoop is the stationary Poisson process: a self-rescheduling event with
// i.i.d. exponential gaps. It draws one ExpFloat64 at Start, then
// Intn/Uint64/ExpFloat64 per arrival — the order the committed goldens
// depend on.
type openLoop struct {
	eng     *sim.Engine
	rng     *rand.Rand
	inject  InjectFunc
	meanGap float64

	size  uint64
	sizer func(tag uint64) uint64
	cores int

	stopped bool
	offered uint64
}

func newOpenLoop(eng *sim.Engine, spec ArrivalSpec, inject InjectFunc) *openLoop {
	g := &openLoop{
		eng:    eng,
		rng:    rand.New(rand.NewSource(spec.Seed)),
		inject: inject,
	}
	g.apply(spec)
	return g
}

// apply derives the generator state from a validated spec.
func (g *openLoop) apply(spec ArrivalSpec) {
	g.meanGap = spec.MeanGap
	g.size = spec.Size
	g.sizer = nil
	g.cores = spec.Cores
	g.stopped = false
	g.offered = 0
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

// RegisterMetrics exposes the generator's offered-load counter.
func (g *openLoop) RegisterMetrics(r *obs.Registry) {
	r.Counter("gen.offered", func() uint64 { return g.offered })
}

// OnEvent implements sim.Sink.
func (g *openLoop) OnEvent(now sim.Cycle, _ uint64) { g.arrive(now) }

func (g *openLoop) scheduleNext() {
	g.eng.ScheduleAfter(uint64(g.rng.ExpFloat64()*g.meanGap), g, 0)
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
