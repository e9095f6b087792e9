// Package nic models the integrated network interface: per-core RX
// descriptor rings, the three packet injection policies compared in the
// paper (conventional DMA, DDIO into a configurable number of LLC ways, and
// the unrealistic Ideal-DDIO), the memory-mapped Work Queue transmit path
// with the SweepBuffer field of §V-D, and the traffic generators (open-loop
// Poisson arrivals and the keep-D-queued closed loop of §IV-B).
package nic

import (
	"fmt"

	"sweeper/internal/obs"
)

// Packet is one received request occupying a ring slot.
type Packet struct {
	// Arrival is the injection cycle (end-to-end latency is measured
	// from here).
	Arrival uint64
	// Size is the packet payload size in bytes.
	Size uint64
	// Addr is the buffer address of the slot.
	Addr uint64
	// Tag seeds the workload's deterministic request derivation
	// (operation type, key, ...).
	Tag uint64
}

// Ring is one core's receive descriptor ring. The NIC fills slots in order;
// the core consumes in FIFO order and frees each slot when done with it, so
// ring occupancy counts packets not yet fully processed. A full ring drops
// arrivals — the packet-loss behaviour §VI-F studies.
type Ring struct {
	core      int
	base      uint64
	slotBytes uint64
	nSlots    int

	pkts   []Packet // FIFO queue of injected, not-yet-popped packets
	headQ  int
	countQ int

	nextSlot int // next slot the NIC will fill
	inUse    int // slots between NIC fill and core free

	enqueued uint64
	dropped  uint64
}

// NewRing creates a ring of nSlots slots of slotBytes each, with slot 0 at
// base.
func NewRing(core int, base uint64, slotBytes uint64, nSlots int) *Ring {
	if nSlots <= 0 {
		panic("nic: ring must have at least one slot")
	}
	if slotBytes == 0 {
		panic("nic: slotBytes must be positive")
	}
	return &Ring{
		core:      core,
		base:      base,
		slotBytes: slotBytes,
		nSlots:    nSlots,
		pkts:      make([]Packet, nSlots),
	}
}

// Core returns the owning core.
func (r *Ring) Core() int { return r.core }

// Slots returns the ring depth.
func (r *Ring) Slots() int { return r.nSlots }

// SlotBytes returns the per-slot buffer size.
func (r *Ring) SlotBytes() uint64 { return r.slotBytes }

// SlotAddr returns the buffer address of a slot.
func (r *Ring) SlotAddr(slot int) uint64 {
	return r.base + uint64(slot)*r.slotBytes
}

// FootprintBytes returns the ring's total buffer footprint.
func (r *Ring) FootprintBytes() uint64 {
	return uint64(r.nSlots) * r.slotBytes
}

// Queued returns the number of injected packets the core has not yet popped
// (the "unconsumed packets" of §IV-B).
func (r *Ring) Queued() int { return r.countQ }

// InUse returns slots held between NIC fill and core free.
func (r *Ring) InUse() int { return r.inUse }

// Full reports whether the NIC has no free slot.
func (r *Ring) Full() bool { return r.inUse == r.nSlots }

// Enqueued and Dropped return cumulative arrival outcomes.
func (r *Ring) Enqueued() uint64 { return r.enqueued }
func (r *Ring) Dropped() uint64  { return r.dropped }

// Reset empties the ring, reusing the packet queue storage. Stale Packet
// values remain in the backing array but are unreachable (countQ == 0) and
// overwritten before any Pop can observe them.
func (r *Ring) Reset() {
	r.headQ, r.countQ = 0, 0
	r.nextSlot, r.inUse = 0, 0
	r.enqueued, r.dropped = 0, 0
}

// checkConservation is the debug slot-conservation probe: slots held by the
// datapath (inUse) never exceed the ring, and queued packets never exceed
// held slots (a packet's slot is reserved before Enqueue and freed only
// after Pop).
func (r *Ring) checkConservation(op string) {
	if r.inUse < 0 || r.inUse > r.nSlots || r.countQ < 0 || r.countQ > r.inUse {
		obs.Failf("nic: ring %d slot conservation violated after %s: inUse=%d queued=%d slots=%d",
			r.core, op, r.inUse, r.countQ, r.nSlots)
	}
}

// Reserve claims the next free slot for an incoming packet, returning the
// slot index, or false if the ring is full (the arrival is dropped by the
// caller).
func (r *Ring) Reserve() (int, bool) {
	if r.Full() {
		r.dropped++
		return 0, false
	}
	s := r.nextSlot
	r.nextSlot = (r.nextSlot + 1) % r.nSlots
	r.inUse++
	if obs.ProbesEnabled {
		r.checkConservation("Reserve")
	}
	return s, true
}

// Enqueue records an injected packet as ready for the core.
func (r *Ring) Enqueue(p Packet) {
	if r.countQ == r.nSlots {
		panic(fmt.Sprintf("nic: ring %d queue overflow", r.core))
	}
	r.pkts[(r.headQ+r.countQ)%r.nSlots] = p
	r.countQ++
	r.enqueued++
	if obs.ProbesEnabled {
		r.checkConservation("Enqueue")
	}
}

// Pop removes the oldest unconsumed packet, or reports false when none is
// queued. The slot remains in use until Free.
func (r *Ring) Pop() (Packet, bool) {
	if r.countQ == 0 {
		return Packet{}, false
	}
	p := r.pkts[r.headQ]
	r.headQ = (r.headQ + 1) % r.nSlots
	r.countQ--
	if obs.ProbesEnabled {
		r.checkConservation("Pop")
	}
	return p, true
}

// Free releases one slot back to the NIC. The core frees in FIFO order
// after finishing (and, under Sweeper, relinquishing) the buffer.
func (r *Ring) Free() {
	if r.inUse == 0 {
		panic(fmt.Sprintf("nic: ring %d free without reserve", r.core))
	}
	r.inUse--
	if obs.ProbesEnabled {
		r.checkConservation("Free")
	}
}

// RegisterMetrics exposes the ring's occupancy to the observability
// registry under the given metric name.
func (r *Ring) RegisterMetrics(reg *obs.Registry, name string) {
	reg.Gauge(name, func(uint64) float64 { return float64(r.inUse) })
}
