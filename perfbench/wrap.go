package main

import (
	"fmt"
	"time"

	"sweeper/internal/core"
	"sweeper/internal/machine"
	"sweeper/internal/nic"
	"sweeper/internal/sim"
	"sweeper/internal/workload"
)

// The traced run times the hot calls into the workload, nic and core layers
// through the simulator's own registries: each tracer registers forwarding
// copies of the registered workload driver, Poisson arrival process and
// clsweep instruction under names of its own, and traced configurations
// select those names. Every wrapper forwards to the real registration, so
// the simulation is unchanged; the traced run checks that it is.

// wrapName is the registry name of tracer t's copy of base.
func (t *tracer) wrapName(base string) string {
	return fmt.Sprintf("perfbench%d.%s", t.id, base)
}

// instrument returns cfg with its workload, open-loop arrival process and
// invalidation instruction replaced by tracer t's timed copies, registering
// them on first use.
func (t *tracer) instrument(cfg machine.Config) (machine.Config, error) {
	var err error
	if cfg.Workload, err = t.wrapWorkload(cfg.Workload); err != nil {
		return cfg, err
	}
	if cfg.ClosedLoopDepth == 0 {
		if cfg.Arrival.Process != "" && cfg.Arrival.Process != nic.ArrivalPoisson {
			return cfg, fmt.Errorf("perfbench: cannot trace arrival process %q", cfg.Arrival.Process)
		}
		cfg.Arrival.Process = t.wrapArrival()
	}
	if cfg.Sweeper.Insn != "" && cfg.Sweeper.Insn != core.InsnCLSweep {
		return cfg, fmt.Errorf("perfbench: cannot trace invalidation instruction %q", cfg.Sweeper.Insn)
	}
	cfg.Sweeper.Insn = t.wrapInsn()
	return cfg, nil
}

// tracedDriver times PlanRequest and forwards everything else.
type tracedDriver struct {
	workload.Driver
	t *tracer
}

func (d *tracedDriver) PlanRequest(tag uint64, pktBytes uint64, plan *workload.Plan) {
	start := time.Now()
	d.Driver.PlanRequest(tag, pktBytes, plan)
	d.t.addHot(hotPlan, start, false)
}

// sizedWarmDriver is a tracedDriver for drivers, like the KVS, that size
// their requests and warm the LLC: the machine discovers both capabilities
// by type assertion, so the wrapper must expose exactly the ones the wrapped
// driver has.
type sizedWarmDriver struct {
	*tracedDriver
	sizer  workload.RequestSizer
	warmer workload.LLCWarmer
}

func (d *sizedWarmDriver) RequestBytes(tag uint64) uint64 { return d.sizer.RequestBytes(tag) }
func (d *sizedWarmDriver) WarmLLC() bool                  { return d.warmer.WarmLLC() }

func (t *tracer) wrapDriver(inner workload.Driver) (workload.Driver, error) {
	d := &tracedDriver{Driver: inner, t: t}
	sizer, sized := inner.(workload.RequestSizer)
	warmer, warms := inner.(workload.LLCWarmer)
	switch {
	case sized && warms:
		return &sizedWarmDriver{tracedDriver: d, sizer: sizer, warmer: warmer}, nil
	case !sized && !warms:
		return d, nil
	}
	return nil, fmt.Errorf("perfbench: no traced wrapper for driver %T", inner)
}

func (t *tracer) wrapWorkload(base string) (string, error) {
	name := t.wrapName(base)
	if _, ok := workload.Lookup(name); ok {
		return name, nil
	}
	reg, ok := workload.Lookup(base)
	if !ok {
		return "", fmt.Errorf("perfbench: unknown workload %q", base)
	}
	workload.Register(workload.Registration{
		Name: name,
		New: func(p workload.Params) (workload.Driver, error) {
			id := t.begin("workload.NewDriver")
			defer t.end(id)
			d, err := reg.New(p)
			if err != nil {
				return nil, err
			}
			return t.wrapDriver(d)
		},
		RespSlotBytes: reg.RespSlotBytes,
		Validate:      reg.Validate,
	})
	return name, nil
}

// tracedArrival marks construction and resets for probe accounting; its
// inject callback is timed where the generator is built.
type tracedArrival struct {
	nic.ArrivalGen
	t *tracer
}

func (g *tracedArrival) Reset(spec nic.ArrivalSpec) error {
	g.t.arrivalBuilt()
	return g.ArrivalGen.Reset(spec)
}

func (t *tracer) wrapArrival() string {
	name := t.wrapName(nic.ArrivalPoisson)
	if _, ok := nic.LookupArrival(name); ok {
		return name
	}
	reg, _ := nic.LookupArrival(nic.ArrivalPoisson)
	nic.RegisterArrival(nic.ArrivalRegistration{
		Name: name,
		New: func(eng *sim.Engine, spec nic.ArrivalSpec, inject nic.InjectFunc) (nic.ArrivalGen, error) {
			t.arrivalBuilt()
			timed := func(now uint64, core int, size uint64, tag uint64) {
				start := time.Now()
				inject(now, core, size, tag)
				t.addHot(hotInject, start, false)
			}
			g, err := reg.New(eng, spec, timed)
			if err != nil {
				return nil, err
			}
			return &tracedArrival{ArrivalGen: g, t: t}, nil
		},
		Validate: reg.Validate,
	})
	return name
}

func (t *tracer) wrapInsn() string {
	name := t.wrapName(core.InsnCLSweep)
	if _, ok := core.LookupInsn(name); ok {
		return name
	}
	reg, _ := core.LookupInsn(core.InsnCLSweep)
	core.RegisterInsn(core.InsnRegistration{
		Name: name,
		Line: func(hw core.Sweepable, now uint64, owner int, a uint64) (bool, bool) {
			start := time.Now()
			dropped, wroteBack := reg.Line(hw, now, owner, a)
			t.addHot(hotSweep, start, dropped)
			return dropped, wroteBack
		},
		IssueCycles: reg.IssueCycles,
		Validate:    reg.Validate,
	})
	return name
}
