package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// Route-table sizes: the 16k rules of §IV-B (barely fits a core's private
// L2) for the premature-eviction studies, and the L1-resident table of
// §VI-E, whose cache and memory pressure all comes from packet RX/TX
// movement, for the collocation study.
const (
	l3fwdRules   = 16_384
	l3fwdL1Rules = 256
)

// Every forwarder walks l3fwdLookupDepth table lines per longest-prefix
// match (one line per trie node) and spends l3fwdComputeCycles per packet
// on the Scale-Out-NUMA protocol handling, header rewrite and the MTU-sized
// payload copy.
const (
	l3fwdLookupDepth   = 2
	l3fwdComputeCycles = 1000
)

// L3Fwd is the forwarder network function: per packet it reads the header,
// walks the route table, rewrites the header and transmits the (copied)
// packet. The port follows the paper's non-zero-copy adaptation: the full
// payload is copied from the RX buffer into a TX buffer (§V-D explains why
// the zero-copy variant needs NIC-driven sweeping instead).
type L3Fwd struct {
	rules      uint64
	routesBase uint64
}

// NewL3Fwd builds a forwarder over a table of the given rule count (one
// line each); call Layout to place the table in an address space.
func NewL3Fwd(rules uint64) *L3Fwd {
	if rules == 0 {
		panic("workload: l3fwd needs at least one rule")
	}
	return &L3Fwd{rules: rules}
}

// Layout implements Driver: it allocates the route table in the address
// space. Re-laying-out against a freshly Reset space reproduces a fresh
// forwarder exactly.
func (f *L3Fwd) Layout(space *addr.Space) {
	f.routesBase = space.AllocApp(f.rules * addr.LineBytes)
}

// Name labels the driver in reports.
func (f *L3Fwd) Name() string { return fmt.Sprintf("l3fwd-%dr", f.rules) }

// NextHop deterministically resolves a packet tag to a rule index, exposing
// the functional routing decision for tests.
func (f *L3Fwd) NextHop(tag uint64) uint64 {
	return splitmix64(tag^0x1234abcd) % f.rules
}

// PlanRequest implements Driver.
func (f *L3Fwd) PlanRequest(tag uint64, pktBytes uint64, plan *Plan) {
	plan.reset()
	// Per-packet jitter stands in for the natural service variation of
	// real traffic (header parsing, flow state); without it, identical
	// cores fall into lockstep and produce synchronized memory bursts.
	plan.ComputeCycles = l3fwdComputeCycles + splitmix64(tag)%64
	plan.ReadFullPacket = true // the copy touches every payload line
	rule := f.NextHop(tag)
	// LPM walk: l3fwdLookupDepth dependent table reads, spread by hashing
	// so the trie levels do not alias to the same lines.
	for d := 0; d < l3fwdLookupDepth; d++ {
		idx := splitmix64(rule+uint64(d)*0x9e37) % f.rules
		plan.read(f.routesBase + idx*addr.LineBytes)
	}
	plan.RespBytes = pktBytes // forward the whole packet
}
