// Package core implements Sweeper, the paper's contribution (§V): a software
// API and hardware extension that lets applications mark consumed network
// buffers so the cache hierarchy can drop their dirty lines without writing
// them back to memory.
//
// The software-visible operation is Relinquish(buffer, size) — analogous to
// free(): after the call the buffer's contents are conclusively dead and any
// read before the NIC's next full overwrite has undefined behaviour. The
// call compiles into one clsweep instruction per cache block; each clsweep
// injects a sweep message that invalidates every copy of the block in the
// hierarchy with no writeback (§V-B).
//
// The package also implements the transmit-path variant (§V-D), where the
// NIC — the last reader of a zero-copy TX buffer — initiates the sweep after
// transmission, triggered by the SweepBuffer field of the Work Queue entry.
package core

import (
	"fmt"

	"sweeper/internal/addr"
)

// Sweepable is the hardware side of the relinquish path. The cache hierarchy
// implements it; the instruction registry (invalidate.go) drives it per line.
type Sweepable interface {
	// Sweep invalidates every copy of the line with no writeback (clsweep
	// §V-B), reporting whether a dirty copy was dropped.
	Sweep(now uint64, owner int, a uint64) bool
}

// Config selects which sweeping mechanisms are active.
type Config struct {
	// RXSweep enables application-driven relinquish of consumed RX
	// buffers — the mechanism evaluated throughout the paper's §VI.
	RXSweep bool
	// TXSweep enables NIC-driven sweeping of transmitted buffers via the
	// Work Queue SweepBuffer field (§V-D). Off in the paper's headline
	// evaluation; exercised by this repo's ablation benchmarks.
	TXSweep bool
	// DebugUseAfterRelinquish enables a sanitizer that records
	// relinquished lines and flags reads before the next NIC overwrite
	// (the undefined behaviour §V-A warns about).
	DebugUseAfterRelinquish bool
	// Insn names the invalidation instruction relinquish compiles into,
	// from the registry in invalidate.go. Empty selects clsweep, the
	// paper's primitive.
	Insn string
}

// DefaultConfig enables RX sweeping.
func DefaultConfig() Config {
	return Config{RXSweep: true}
}

// Sweeper binds the software API to the simulated hardware.
type Sweeper struct {
	cfg  Config
	hw   Sweepable
	insn *InsnRegistration

	relinquishes uint64
	sweptLines   uint64
	droppedDirty uint64
	wroteBack    uint64
	nicSweeps    uint64

	relinquished map[uint64]bool // debug sanitizer state
	violations   []uint64
}

// New creates a Sweeper over the given hardware.
func New(hw Sweepable, cfg Config) *Sweeper {
	if hw == nil {
		panic("core: nil Sweepable hardware")
	}
	s := &Sweeper{cfg: cfg, hw: hw, insn: mustInsn(cfg)}
	if cfg.DebugUseAfterRelinquish {
		s.relinquished = make(map[uint64]bool)
	}
	return s
}

// Reset returns the Sweeper to its just-constructed state under a (possibly
// different) configuration, as New over the same hardware would produce.
func (s *Sweeper) Reset(cfg Config) {
	s.cfg = cfg
	s.insn = mustInsn(cfg)
	s.relinquishes, s.sweptLines, s.droppedDirty, s.wroteBack, s.nicSweeps = 0, 0, 0, 0, 0
	s.relinquished = nil
	if cfg.DebugUseAfterRelinquish {
		s.relinquished = make(map[uint64]bool)
	}
	s.violations = nil
}

// Config returns the active configuration.
func (s *Sweeper) Config() Config { return s.cfg }

// RXEnabled reports whether application-driven RX sweeping is on.
func (s *Sweeper) RXEnabled() bool { return s.cfg.RXSweep }

// TXEnabled reports whether NIC-driven TX sweeping is on.
func (s *Sweeper) TXEnabled() bool { return s.cfg.TXSweep }

// Relinquish declares that the application running on core has conclusively
// consumed the buffer at buf of the given size (§V-A). Every covered cache
// block is swept. It returns the cycle at which the core may proceed: the
// issue cost of the clsweep sequence; propagation is off the critical path.
//
// When RX sweeping is disabled the call is a no-op costing zero cycles,
// which lets workloads call Relinquish unconditionally and lets experiment
// configs toggle Sweeper on and off.
func (s *Sweeper) Relinquish(now uint64, core int, buf, size uint64) uint64 {
	if !s.cfg.RXSweep || size == 0 {
		return now
	}
	s.relinquishes++
	lines := s.sweepRange(now, core, buf, size)
	return now + s.insn.IssueCycles(s.cfg, lines)
}

// NICSweep is the transmit-path variant (§V-D): after the NIC has read and
// transmitted the buffer named by a Work Queue entry with SweepBuffer set,
// it injects sweep messages for the buffer's blocks. There is no core-side
// issue cost.
func (s *Sweeper) NICSweep(now uint64, owner int, buf, size uint64) {
	if !s.cfg.TXSweep || size == 0 {
		return
	}
	s.nicSweeps++
	s.sweepRange(now, owner, buf, size)
}

func (s *Sweeper) sweepRange(now uint64, owner int, buf, size uint64) uint64 {
	first := buf & addr.LineMask
	last := (buf + size - 1) & addr.LineMask
	line := s.insn.Line
	var lines uint64
	for a := first; ; a += addr.LineBytes {
		dropped, wb := line(s.hw, now, owner, a)
		if dropped {
			s.droppedDirty++
		}
		if wb {
			s.wroteBack++
		}
		s.sweptLines++
		lines++
		if s.relinquished != nil {
			s.relinquished[a] = true
		}
		if a == last {
			break
		}
	}
	return lines
}

// NoteOverwrite informs the sanitizer that the NIC has fully overwritten the
// line, ending the relinquished (undefined-contents) window.
func (s *Sweeper) NoteOverwrite(a uint64) {
	if s.relinquished != nil {
		delete(s.relinquished, a&addr.LineMask)
	}
}

// CheckRead flags a CPU read of a line that was relinquished and not yet
// overwritten — the undefined behaviour of §V-A, equivalent to a
// use-after-free. It reports whether the read was a violation.
func (s *Sweeper) CheckRead(a uint64) bool {
	if s.relinquished == nil {
		return false
	}
	a &= addr.LineMask
	if s.relinquished[a] {
		s.violations = append(s.violations, a)
		return true
	}
	return false
}

// Violations returns the line addresses of detected use-after-relinquish
// reads.
func (s *Sweeper) Violations() []uint64 { return s.violations }

// Stats summarizes Sweeper activity.
type Stats struct {
	// Relinquishes is the number of Relinquish calls.
	Relinquishes uint64
	// NICSweeps is the number of NIC-driven TX sweeps.
	NICSweeps uint64
	// SweptLines is the total clsweep operations executed.
	SweptLines uint64
	// DroppedDirtyLines counts dirty lines invalidated without writeback;
	// each is 64 bytes of DRAM write bandwidth conserved.
	DroppedDirtyLines uint64
	// WrittenBackLines counts dirty lines the relinquish instruction
	// itself wrote back. clsweep never writes back, so it is always 0; it
	// stays only because perfbench digests the JSON of machine.Results,
	// and deleting it would change every reference digest.
	WrittenBackLines uint64
}

// Stats returns a snapshot of Sweeper activity counters.
func (s *Sweeper) Stats() Stats {
	return Stats{
		Relinquishes:      s.relinquishes,
		NICSweeps:         s.nicSweeps,
		SweptLines:        s.sweptLines,
		DroppedDirtyLines: s.droppedDirty,
		WrittenBackLines:  s.wroteBack,
	}
}

func (s *Sweeper) String() string {
	return fmt.Sprintf("sweeper{rx:%v tx:%v relinquishes:%d dropped:%d}",
		s.cfg.RXSweep, s.cfg.TXSweep, s.relinquishes, s.droppedDirty)
}
