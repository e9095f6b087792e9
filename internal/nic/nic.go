package nic

import (
	"fmt"

	"sweeper/internal/addr"
	"sweeper/internal/obs"
)

// Mode selects the packet injection policy (§III baselines).
type Mode uint8

const (
	// ModeDMA is conventional direct-to-DRAM injection.
	ModeDMA Mode = iota
	// ModeDDIO write-allocates incoming packets into the LLC DDIO ways.
	ModeDDIO
	// ModeIdeal is the unrealistic Ideal-DDIO baseline: a separate
	// infinite cache holds all network buffers, so packets occupy no real
	// LLC capacity and generate zero DRAM traffic.
	ModeIdeal
)

// String names the mode as in the paper's legends.
func (m Mode) String() string {
	switch m {
	case ModeDMA:
		return "DMA"
	case ModeDDIO:
		return "DDIO"
	case ModeIdeal:
		return "Ideal-DDIO"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Injector is the cache-hierarchy interface the NIC drives. The cache
// package's Hierarchy implements it.
type Injector interface {
	NICWriteDDIO(now uint64, owner int, a uint64)
	NICWriteDMA(now uint64, owner int, a uint64)
	NICRead(now uint64, owner int, a uint64, dma bool) uint64
}

// TXSweeper is the NIC-driven sweep hook of §V-D (implemented by
// core.Sweeper). A nil TXSweeper disables TX sweeping.
type TXSweeper interface {
	NICSweep(now uint64, owner int, buf, size uint64)
	TXEnabled() bool
}

// Overwrites receives notice of NIC full-line overwrites; the Sweeper
// sanitizer uses it to close use-after-relinquish windows.
type Overwrites interface {
	NoteOverwrite(a uint64)
}

// WorkQueueEntry is the memory-mapped descriptor a core posts to schedule a
// transmission, including the paper's proposed SweepBuffer field (Figure 4).
type WorkQueueEntry struct {
	// Owner is the posting core.
	Owner int
	// BufAddr and Size locate the transmit buffer.
	BufAddr uint64
	Size    uint64
	// SweepBuffer asks the NIC to sweep the buffer's cache blocks after
	// transmission (§V-D zero-copy support).
	SweepBuffer bool
}

// NIC is the integrated network interface: one RX ring per core plus the
// injection and transmit machinery.
type NIC struct {
	mode    Mode
	inj     Injector
	rings   []*Ring
	sweeper TXSweeper
	overw   Overwrites

	// onEnqueue, when set, is invoked after a packet lands in a ring so
	// the machine can wake an idle core.
	onEnqueue func(now uint64, core int)

	seq       uint64
	lineBuf   []uint64
	injected  uint64
	txPackets uint64
	txLines   uint64
}

// Config describes the NIC.
type Config struct {
	Mode Mode
	// RingSlots is the RX descriptor count per core (the paper's
	// "receive buffers per core").
	RingSlots int
	// SlotBytes is the buffer size per descriptor (the packet MTU of the
	// experiment).
	SlotBytes uint64
}

// New builds a NIC over the address space and injector. The space's per-core
// RX regions must cover RingSlots*SlotBytes.
func New(cfg Config, space *addr.Space, inj Injector) *NIC {
	if inj == nil && cfg.Mode != ModeIdeal {
		panic("nic: nil injector")
	}
	need := uint64(cfg.RingSlots) * cfg.SlotBytes
	if need > space.RXBytesPerCore() {
		panic(fmt.Sprintf("nic: ring footprint %dB exceeds RX region %dB",
			need, space.RXBytesPerCore()))
	}
	n := &NIC{
		mode:  cfg.Mode,
		inj:   inj,
		rings: make([]*Ring, space.NCores()),
	}
	for c := 0; c < space.NCores(); c++ {
		n.rings[c] = NewRing(c, space.RXBase(c), cfg.SlotBytes, cfg.RingSlots)
	}
	return n
}

// Reset returns the NIC to its just-constructed state under a (possibly
// different) injection mode, reusing the rings and scratch buffers. Hooks
// (TX sweeper, overwrite listener, enqueue callback) are cleared; the owner
// re-wires them exactly as after New.
func (n *NIC) Reset(mode Mode) {
	n.mode = mode
	n.sweeper, n.overw, n.onEnqueue = nil, nil, nil
	n.seq = 0
	n.injected, n.txPackets, n.txLines = 0, 0, 0
	for _, r := range n.rings {
		r.Reset()
	}
}

// Mode returns the injection policy.
func (n *NIC) Mode() Mode { return n.mode }

// Ring returns core's RX ring.
func (n *NIC) Ring(core int) *Ring { return n.rings[core] }

// NumRings returns the core count.
func (n *NIC) NumRings() int { return len(n.rings) }

// SetTXSweeper wires the §V-D NIC-driven sweeping hook.
func (n *NIC) SetTXSweeper(s TXSweeper) { n.sweeper = s }

// SetOverwriteListener wires the sanitizer overwrite hook.
func (n *NIC) SetOverwriteListener(o Overwrites) { n.overw = o }

// SetEnqueueCallback registers the wake-up hook invoked on every successful
// injection.
func (n *NIC) SetEnqueueCallback(fn func(now uint64, core int)) { n.onEnqueue = fn }

// Inject delivers one size-byte packet to core's ring at cycle now,
// performing the mode's architectural writes. It reports false when the
// ring is full and the packet is dropped.
func (n *NIC) Inject(now uint64, core int, size uint64, tag uint64) bool {
	r := n.rings[core]
	if size == 0 || size > r.SlotBytes() {
		panic(fmt.Sprintf("nic: packet size %d outside (0,%d]", size, r.SlotBytes()))
	}
	slot, ok := r.Reserve()
	if !ok {
		return false
	}
	base := r.SlotAddr(slot)
	n.lineBuf = addr.LineAddrs(n.lineBuf[:0], base, size)
	switch n.mode {
	case ModeDDIO:
		for _, a := range n.lineBuf {
			n.inj.NICWriteDDIO(now, core, a)
			if n.overw != nil {
				n.overw.NoteOverwrite(a)
			}
		}
	case ModeDMA:
		for _, a := range n.lineBuf {
			n.inj.NICWriteDMA(now, core, a)
			if n.overw != nil {
				n.overw.NoteOverwrite(a)
			}
		}
	case ModeIdeal:
		// Side cache: no architectural effect.
	}
	n.seq++
	n.injected++
	r.Enqueue(Packet{
		Seq:     n.seq,
		Arrival: now,
		Size:    size,
		Slot:    slot,
		Addr:    base,
		Tag:     tag,
	})
	if n.onEnqueue != nil {
		n.onEnqueue(now, core)
	}
	return true
}

// Transmit processes a posted Work Queue entry at cycle now: the NIC reads
// the buffer's lines through the hierarchy (from DRAM under conventional
// DMA, flushing dirty copies first) and, when the entry requests it and TX
// sweeping is enabled, sweeps the buffer afterwards. The transmission
// itself is not bandwidth-capped (§III: network bandwidth is never the
// bottleneck under study).
func (n *NIC) Transmit(now uint64, wqe WorkQueueEntry) {
	n.txPackets++
	if n.mode == ModeIdeal {
		return // network buffers live in the side cache
	}
	n.lineBuf = addr.LineAddrs(n.lineBuf[:0], wqe.BufAddr, wqe.Size)
	for _, a := range n.lineBuf {
		n.inj.NICRead(now, wqe.Owner, a, n.mode == ModeDMA)
		n.txLines++
	}
	if wqe.SweepBuffer && n.sweeper != nil && n.sweeper.TXEnabled() {
		n.sweeper.NICSweep(now, wqe.Owner, wqe.BufAddr, wqe.Size)
	}
}

// Injected returns the number of packets successfully injected.
func (n *NIC) Injected() uint64 { return n.injected }

// Dropped sums ring-full drops across all rings.
func (n *NIC) Dropped() uint64 {
	var d uint64
	for _, r := range n.rings {
		d += r.Dropped()
	}
	return d
}

// TotalQueued sums unconsumed packets across rings.
func (n *NIC) TotalQueued() int {
	q := 0
	for _, r := range n.rings {
		q += r.Queued()
	}
	return q
}

// RegisterMetrics exposes the NIC's injection/transmit counters, aggregate
// queue state and per-ring occupancy to the observability registry.
func (n *NIC) RegisterMetrics(r *obs.Registry) {
	r.Counter("nic.injected", func() uint64 { return n.injected })
	r.Counter("nic.dropped", n.Dropped)
	r.Counter("nic.tx_packets", func() uint64 { return n.txPackets })
	r.Counter("nic.tx_lines", func() uint64 { return n.txLines })
	r.Gauge("nic.queued", func(uint64) float64 { return float64(n.TotalQueued()) })
	r.Gauge("nic.ring_occupancy", func(uint64) float64 {
		var u int
		for _, rg := range n.rings {
			u += rg.InUse()
		}
		return float64(u)
	})
	for i, rg := range n.rings {
		rg.RegisterMetrics(r, fmt.Sprintf("nic.ring%02d.occupancy", i))
	}
}
