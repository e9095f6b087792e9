package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// L3FwdConfig sizes the forwarder. The paper uses 16k rules (barely fits a
// core's private L2) for the premature-eviction studies and an L1-resident
// table for the collocation study.
type L3FwdConfig struct {
	// Rules is the forwarding-table entry count; each entry occupies one
	// line (trie node granularity).
	Rules uint64
	// LookupDepth is how many table lines one longest-prefix-match walk
	// touches.
	LookupDepth int
	// ComputeCycles is the fixed header-rewrite compute per packet.
	ComputeCycles uint64
}

// DefaultL3FwdConfig returns the 16k-rule configuration of §IV-B. The
// per-packet compute covers the Scale-Out-NUMA protocol handling, header
// rewrite and the MTU-sized payload copy.
func DefaultL3FwdConfig() L3FwdConfig {
	return L3FwdConfig{Rules: 16_384, LookupDepth: 2, ComputeCycles: 1000}
}

// L1ResidentL3FwdConfig returns the tiny-table variant of §VI-E, whose
// dataset fits in L1 so all its cache/memory pressure comes from packet
// RX/TX movement.
func L1ResidentL3FwdConfig() L3FwdConfig {
	return L3FwdConfig{Rules: 256, LookupDepth: 2, ComputeCycles: 1000}
}

// L3Fwd is the forwarder network function: per packet it reads the header,
// walks the route table, rewrites the header and transmits the (copied)
// packet. The port follows the paper's non-zero-copy adaptation: the full
// payload is copied from the RX buffer into a TX buffer (§V-D explains why
// the zero-copy variant needs NIC-driven sweeping instead).
type L3Fwd struct {
	cfg        L3FwdConfig
	routesBase uint64
	forwarded  uint64
}

// NewL3Fwd builds the forwarder; call Layout to place its route table in an
// address space.
func NewL3Fwd(cfg L3FwdConfig) *L3Fwd {
	if cfg.Rules == 0 || cfg.LookupDepth <= 0 {
		panic("workload: l3fwd needs at least one rule and lookup step")
	}
	return &L3Fwd{cfg: cfg}
}

// Layout implements Driver: it allocates the route table in the address
// space and clears the packet counter. Re-laying-out against a freshly Reset
// space reproduces a fresh forwarder exactly.
func (f *L3Fwd) Layout(space *addr.Space) {
	f.routesBase = space.AllocApp(f.cfg.Rules * addr.LineBytes)
	f.forwarded = 0
}

// Name implements Workload.
func (f *L3Fwd) Name() string { return fmt.Sprintf("l3fwd-%dr", f.cfg.Rules) }

// Config returns the forwarder's configuration.
func (f *L3Fwd) Config() L3FwdConfig { return f.cfg }

// NextHop deterministically resolves a packet tag to a rule index, exposing
// the functional routing decision for tests.
func (f *L3Fwd) NextHop(tag uint64) uint64 {
	return splitmix64(tag^0x1234abcd) % f.cfg.Rules
}

// PlanRequest implements Workload.
func (f *L3Fwd) PlanRequest(tag uint64, pktBytes uint64, plan *Plan) {
	plan.reset()
	// Per-packet jitter stands in for the natural service variation of
	// real traffic (header parsing, flow state); without it, identical
	// cores fall into lockstep and produce synchronized memory bursts.
	plan.ComputeCycles = f.cfg.ComputeCycles + splitmix64(tag)%64
	plan.ReadFullPacket = true // the copy touches every payload line
	rule := f.NextHop(tag)
	// LPM walk: LookupDepth dependent table reads, spread by hashing so
	// the trie levels do not alias to the same lines.
	for d := 0; d < f.cfg.LookupDepth; d++ {
		idx := splitmix64(rule+uint64(d)*0x9e37) % f.cfg.Rules
		plan.read(f.routesBase + idx*addr.LineBytes)
	}
	plan.RespBytes = pktBytes // forward the whole packet
	f.forwarded++
}

// ExtraServiceCycles implements Driver: the forwarder's jitter is already
// part of its plan compute.
func (f *L3Fwd) ExtraServiceCycles(uint64) uint64 { return 0 }

// Snapshot implements Driver.
func (f *L3Fwd) Snapshot() []Counter {
	return []Counter{{Name: "forwarded", Value: f.forwarded}}
}

// Forwarded returns the number of packets planned.
func (f *L3Fwd) Forwarded() uint64 { return f.forwarded }
