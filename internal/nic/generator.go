package nic

import (
	"math/rand"

	"sweeper/internal/obs"
)

// The open-loop generators (Poisson, MMPP) live in arrival.go behind the
// ArrivalGen registry; this file keeps the closed loop, whose keep-D-queued
// contract is driven by the cores rather than by an arrival clock.

// ClosedLoopGen emulates the §IV-B batching study: it keeps at least D
// unconsumed packets in every core's RX ring at all times, so the system
// permanently runs with deep packet queues and throughput is purely
// service-rate limited.
type ClosedLoopGen struct {
	nic   *NIC
	rng   *rand.Rand
	depth int
	size  uint64
	sizer func(tag uint64) uint64
	cores int
}

// NewClosedLoopGen creates a keep-D-queued generator of size-byte packets.
func NewClosedLoopGen(n *NIC, size uint64, depth int, seed int64) *ClosedLoopGen {
	if depth <= 0 {
		panic("nic: closed-loop depth must be positive")
	}
	if depth > n.Ring(0).Slots() {
		panic("nic: closed-loop depth exceeds ring size")
	}
	return &ClosedLoopGen{
		nic:   n,
		rng:   rand.New(rand.NewSource(seed)),
		depth: depth,
		size:  size,
		cores: n.NumRings(),
	}
}

// Reset restores the generator with a new depth and seed, reusing its rand
// source. The sizer and target-core restriction are cleared; the owner
// re-installs them as after NewClosedLoopGen.
func (g *ClosedLoopGen) Reset(depth int, seed int64) {
	if depth <= 0 {
		panic("nic: closed-loop depth must be positive")
	}
	if depth > g.nic.Ring(0).Slots() {
		panic("nic: closed-loop depth exceeds ring size")
	}
	g.rng.Seed(seed)
	g.depth = depth
	g.sizer = nil
	g.cores = g.nic.NumRings()
}

// SetSizer installs a per-packet size function of the tag.
func (g *ClosedLoopGen) SetSizer(fn func(tag uint64) uint64) { g.sizer = fn }

// SetTargetCores restricts generation to rings [0, n).
func (g *ClosedLoopGen) SetTargetCores(n int) {
	if n <= 0 || n > g.nic.NumRings() {
		panic("nic: target core count out of range")
	}
	g.cores = n
}

// Start fills every targeted ring to the target depth at cycle now.
func (g *ClosedLoopGen) Start(now uint64) {
	for c := 0; c < g.cores; c++ {
		g.Refill(now, c)
	}
}

// Refill tops core's ring back up to D unconsumed packets. The machine
// calls it each time the core pops a packet.
func (g *ClosedLoopGen) Refill(now uint64, core int) {
	r := g.nic.Ring(core)
	for r.Queued() < g.depth && !r.Full() {
		tag := g.rng.Uint64()
		size := g.size
		if g.sizer != nil {
			size = g.sizer(tag)
		}
		g.nic.Inject(now, core, size, tag)
	}
}

// Depth returns the maintained per-core queue depth.
func (g *ClosedLoopGen) Depth() int { return g.depth }

// RegisterMetrics exposes the maintained queue depth (constant by
// construction, but recorded so manifests are self-describing).
func (g *ClosedLoopGen) RegisterMetrics(r *obs.Registry) {
	r.Gauge("gen.depth", func(uint64) float64 { return float64(g.depth) })
}
