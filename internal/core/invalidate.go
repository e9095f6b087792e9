package core

import (
	"fmt"

	"sweeper/internal/registry"
)

// This file keys the relinquish path's per-line primitive by name, mirroring
// the nic arrival-process registry: Config.Insn selects the instruction, and
// the registry supplies its per-line hardware semantics, its core-visible
// issue-latency model and its knob validation. clsweep is the one shipped
// instruction; the registry stays so harnesses can register instrumented
// copies of it under names of their own.

// InsnCLSweep drops every cached copy with no writeback — Sweeper's hardware
// primitive (§V-B) and the default instruction.
const InsnCLSweep = "clsweep"

// InsnRegistration describes one invalidation instruction to the registry.
type InsnRegistration struct {
	// Name keys the registration; Config.Insn selects it ("" = clsweep).
	Name string
	// Line applies the instruction to a single cache line through the
	// hardware hooks. dropped reports a dirty copy invalidated without
	// writeback (bandwidth conserved); wroteBack reports a writeback the
	// instruction itself issued.
	Line func(hw Sweepable, now uint64, owner int, a uint64) (dropped, wroteBack bool)
	// IssueCycles models the core-visible cost of covering lines cache
	// lines in one Relinquish call.
	IssueCycles func(cfg Config, lines uint64) uint64
	// Validate rejects knob combinations this instruction cannot honor;
	// nil means the shared knobs suffice.
	Validate func(cfg Config) error
}

var insns = registry.New[*InsnRegistration]("invalidation instruction")

// RegisterInsn adds an invalidation instruction to the registry. It panics on
// missing hooks, an empty name or a duplicate registration — all programmer
// errors at init time.
func RegisterInsn(reg InsnRegistration) {
	if reg.Line == nil || reg.IssueCycles == nil {
		panic(fmt.Sprintf("core: instruction %q registered without Line/IssueCycles hooks", reg.Name))
	}
	insns.Add(reg.Name, &reg)
}

// LookupInsn returns the registration for name, if any.
func LookupInsn(name string) (*InsnRegistration, bool) { return insns.Lookup(name) }

// InsnNames returns the registered instruction names, sorted.
func InsnNames() []string { return insns.Names() }

// insnName resolves the configured instruction, defaulting to clsweep so the
// zero Config keeps the seed's semantics.
func (c Config) insnName() string {
	if c.Insn == "" {
		return InsnCLSweep
	}
	return c.Insn
}

// Validate rejects configurations the registry cannot honor: unknown
// instruction names and knobs the instruction rejects.
// machine.Config.Validate calls it, so bad combinations fail before any
// simulation runs.
func (c Config) Validate() error {
	reg, err := insns.Get(c.insnName())
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if reg.Validate != nil {
		return reg.Validate(c)
	}
	return nil
}

// mustInsn resolves the configured registration; Validate runs first in any
// assembled machine, so a miss here is a programmer error.
func mustInsn(cfg Config) *InsnRegistration {
	reg, ok := LookupInsn(cfg.insnName())
	if !ok {
		panic(fmt.Sprintf("core: unknown invalidation instruction %q", cfg.Insn))
	}
	return reg
}

func init() {
	RegisterInsn(InsnRegistration{
		Name: InsnCLSweep,
		Line: func(hw Sweepable, now uint64, owner int, a uint64) (bool, bool) {
			return hw.Sweep(now, owner, a), false
		},
		// One clsweep per covered cache line, one cycle each to issue; the
		// sweep message itself propagates off the critical path.
		IssueCycles: func(_ Config, lines uint64) uint64 { return lines },
	})
}
