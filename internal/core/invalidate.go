package core

import (
	"fmt"

	"sweeper/internal/registry"
)

// This file generalizes the relinquish path from the hardwired clsweep
// primitive into a name-keyed family of invalidation instructions, mirroring
// the nic arrival-process registry: scenarios select the instruction by name
// (`invalidate_insn` knob), and the registry supplies its per-line hardware
// semantics, its core-visible issue-latency model and its knob validation.
// ROADMAP item 4(b); the alternatives are grounded in the x86 CLFLUSH/CLWB
// baselines the paper contrasts clsweep against (§V-B) and the SIMF paper's
// single-instruction multiple-flush proposal (PAPERS.md).

// Registered instruction names. InsnCLSweep is the default and preserves the
// seed's exact semantics and accounting.
const (
	// InsnCLSweep drops every cached copy with no writeback — Sweeper's
	// hardware primitive (§V-B).
	InsnCLSweep = "clsweep"
	// InsnCLFlush invalidates every copy but writes a dirty one back
	// first — the baseline x86 semantics.
	InsnCLFlush = "clflush"
	// InsnCLWB writes a dirty copy back and leaves the copies clean in
	// place, so the dead buffer keeps occupying cache until overwritten.
	InsnCLWB = "clwb"
	// InsnSIMF applies clflush semantics per line but issues them as
	// SIMF-style bulk operations: one instruction covers a batch of lines,
	// so the core-side cost is per batch, not per line.
	InsnSIMF = "simf"
)

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

// simfBatchLines resolves the lines-per-operation knob (default 64: one simf
// covers a 4KB page worth of lines).
func (c Config) simfBatchLines() uint64 {
	if c.SIMFBatchLines == 0 {
		return 64
	}
	return uint64(c.SIMFBatchLines)
}

// simfBatchCycles resolves the per-operation issue cost (default 16).
func (c Config) simfBatchCycles() uint64 {
	if c.SIMFBatchCycles == 0 {
		return 16
	}
	return uint64(c.SIMFBatchCycles)
}

// Validate rejects configurations the registry cannot honor: unknown
// instruction names and bad instruction knobs. machine.Config.Validate calls
// it, so bad combinations fail before any simulation runs.
func (c Config) Validate() error {
	reg, err := insns.Get(c.insnName())
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.SIMFBatchLines < 0 {
		return fmt.Errorf("core: simf batch lines %d must be non-negative", c.SIMFBatchLines)
	}
	if c.SIMFBatchCycles < 0 {
		return fmt.Errorf("core: simf batch cycles %d must be non-negative", c.SIMFBatchCycles)
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

// perLineCycles is the issue model shared by the per-line instructions:
// one instruction per covered cache line.
func perLineCycles(cfg Config, lines uint64) uint64 {
	return lines * cfg.IssueCyclesPerLine
}

// flushLine is the per-line semantics shared by clflush and simf.
func flushLine(hw Sweepable, now uint64, owner int, a uint64) (bool, bool) {
	return false, hw.Flush(now, owner, a)
}

func init() {
	RegisterInsn(InsnRegistration{
		Name: InsnCLSweep,
		Line: func(hw Sweepable, now uint64, owner int, a uint64) (bool, bool) {
			return hw.Sweep(now, owner, a), false
		},
		IssueCycles: perLineCycles,
	})
	RegisterInsn(InsnRegistration{
		Name:        InsnCLFlush,
		Line:        flushLine,
		IssueCycles: perLineCycles,
	})
	RegisterInsn(InsnRegistration{
		Name: InsnCLWB,
		Line: func(hw Sweepable, now uint64, owner int, a uint64) (bool, bool) {
			return false, hw.CLWB(now, owner, a)
		},
		IssueCycles: perLineCycles,
	})
	RegisterInsn(InsnRegistration{
		Name: InsnSIMF,
		Line: flushLine,
		IssueCycles: func(cfg Config, lines uint64) uint64 {
			batch := cfg.simfBatchLines()
			ops := (lines + batch - 1) / batch
			return uint64(cfg.SIMFSetupCycles) + ops*cfg.simfBatchCycles()
		},
		Validate: func(cfg Config) error {
			if cfg.SIMFSetupCycles < 0 {
				return fmt.Errorf("core: simf setup cycles %d must be non-negative", cfg.SIMFSetupCycles)
			}
			return nil
		},
	})
}
