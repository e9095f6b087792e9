// Package addr defines the simulated physical address space: where per-core
// RX and TX rings, key-value-store structures, route tables and collocated
// application datasets live, and how an arbitrary line address is classified
// back into the paper's traffic categories (RX buffer, TX buffer, other).
package addr

import "fmt"

// LineBytes is the cache line size; every address handled by the simulator
// is line-aligned.
const LineBytes = 64

// LineMask aligns an address down to its line.
const LineMask = ^uint64(LineBytes - 1)

// Class identifies what kind of data an address holds.
type Class uint8

const (
	// ClassOther is application data (KVS structures, route tables,
	// X-Mem arrays, ...).
	ClassOther Class = iota
	// ClassRX is a receive network buffer.
	ClassRX
	// ClassTX is a transmit network buffer.
	ClassTX
)

// String returns a short label for the class.
func (c Class) String() string {
	switch c {
	case ClassRX:
		return "RX"
	case ClassTX:
		return "TX"
	default:
		return "Other"
	}
}

// Space is the machine's physical address map. RX rings for all cores form
// one contiguous region, TX rings another; application data regions are
// allocated after them. All regions are line-aligned.
type Space struct {
	nCores    int
	rxBase    uint64
	rxPerCore uint64
	rxEnd     uint64
	txBase    uint64
	txPerCore uint64
	txEnd     uint64
	cursor    uint64
}

// base leaves the low 1 GiB unused so that a zero address is never a valid
// buffer, which catches uninitialized-address bugs in tests.
const base = uint64(1) << 30

// NewSpace lays out an address space for nCores cores with the given RX and
// TX ring footprints per core (rounded up to whole lines).
func NewSpace(nCores int, rxBytesPerCore, txBytesPerCore uint64) *Space {
	if nCores <= 0 {
		panic("addr: nCores must be positive")
	}
	rx := roundUp(rxBytesPerCore)
	tx := roundUp(txBytesPerCore)
	s := &Space{
		nCores:    nCores,
		rxBase:    base,
		rxPerCore: rx,
	}
	s.rxEnd = s.rxBase + uint64(nCores)*rx
	s.txBase = s.rxEnd
	s.txPerCore = tx
	s.txEnd = s.txBase + uint64(nCores)*tx
	s.cursor = s.txEnd
	return s
}

func roundUp(n uint64) uint64 {
	return (n + LineBytes - 1) &^ uint64(LineBytes-1)
}

// NCores returns the number of cores the space was laid out for.
func (s *Space) NCores() int { return s.nCores }

// RXBase returns the base address of core's RX ring region.
func (s *Space) RXBase(core int) uint64 {
	s.checkCore(core)
	return s.rxBase + uint64(core)*s.rxPerCore
}

// RXBytesPerCore returns the per-core RX region size in bytes.
func (s *Space) RXBytesPerCore() uint64 { return s.rxPerCore }

// TXBase returns the base address of core's TX ring region.
func (s *Space) TXBase(core int) uint64 {
	s.checkCore(core)
	return s.txBase + uint64(core)*s.txPerCore
}

// TXBytesPerCore returns the per-core TX region size in bytes.
func (s *Space) TXBytesPerCore() uint64 { return s.txPerCore }

func (s *Space) checkCore(core int) {
	if core < 0 || core >= s.nCores {
		panic(fmt.Sprintf("addr: core %d out of range [0,%d)", core, s.nCores))
	}
}

// Reset releases every AllocApp region, rewinding the allocation cursor to
// just past the TX rings. Re-running the same allocation sequence afterwards
// yields identical region bases, which is what lets a pooled machine rebuild
// its workload at the exact addresses a fresh machine would use.
func (s *Space) Reset() { s.cursor = s.txEnd }

// AllocApp reserves size bytes of application data and returns the region's
// base address. Regions are line-aligned and never overlap.
func (s *Space) AllocApp(size uint64) uint64 {
	b := s.cursor
	s.cursor += roundUp(size)
	return b
}

// End returns the first address beyond every allocated region.
func (s *Space) End() uint64 { return s.cursor }

// Classify maps a line address to its traffic class and, for network
// buffers, the owning core (-1 for application data).
func (s *Space) Classify(a uint64) (Class, int) {
	switch {
	case a >= s.rxBase && a < s.rxEnd:
		return ClassRX, int((a - s.rxBase) / s.rxPerCore)
	case a >= s.txBase && a < s.txEnd:
		return ClassTX, int((a - s.txBase) / s.txPerCore)
	default:
		return ClassOther, -1
	}
}

// Lines returns how many whole cache lines cover size bytes.
func Lines(size uint64) uint64 {
	return (size + LineBytes - 1) / LineBytes
}

// LineAddrs appends the line-aligned addresses covering [start, start+size)
// to dst and returns it.
func LineAddrs(dst []uint64, start, size uint64) []uint64 {
	first := start & LineMask
	last := (start + size - 1) & LineMask
	for a := first; ; a += LineBytes {
		dst = append(dst, a)
		if a == last {
			break
		}
	}
	return dst
}
