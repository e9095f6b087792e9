package mem

import (
	"fmt"
	"math"
	"strings"

	"sweeper/internal/addr"
	"sweeper/internal/obs"
)

// This file adds the hybrid second memory tier of ROADMAP item 4(a): a
// CXL/NVM-class backend behind the same Read/Write channel surface as the
// DDR4 model, with asymmetric read/write latency, a lower bandwidth ceiling,
// and a page-granular placement policy (static address split plus a
// hot-page heuristic) deciding which tier owns each access — per "Emulating
// Hybrid Memory on NUMA Hardware" (PAPERS.md).

// Placement policy names for TierConfig.Policy.
const (
	// TierStatic places the first DRAMBytes of the application heap on
	// tier 0 and everything beyond on tier 1, permanently.
	TierStatic = "static"
	// TierHotPage starts like TierStatic but promotes cold-region pages
	// that exceed HotPageThreshold accesses per epoch back to tier 0,
	// demoting them when they cool — a first-order hot-page migrator.
	TierHotPage = "hotpage"
)

// TierPolicies returns the supported placement policy names.
func TierPolicies() []string { return []string{TierStatic, TierHotPage} }

// TierConfig configures the hybrid memory tier. The zero value disables
// tiering entirely; all fields are plain scalars so machine.Config stays
// comparable. Enabled configurations must carry positive latencies and
// bandwidth — start from DefaultTierConfig and override.
type TierConfig struct {
	// Policy selects the placement policy ("" = tiering off).
	Policy string
	// DRAMBytes is how much of the application heap stays on tier 0; pages
	// past the boundary are tier-1 candidates. 0 puts the whole heap on
	// tier 1. RX/TX rings always stay on tier 0.
	DRAMBytes uint64
	// ReadLatency/WriteLatency are tier-1 unloaded access latencies in CPU
	// cycles; NVM-class devices are read/write asymmetric.
	ReadLatency  uint64
	WriteLatency uint64
	// BandwidthGBps is the tier-1 bandwidth ceiling.
	BandwidthGBps float64
	// HotPageThreshold is the accesses-per-epoch bar a cold page must clear
	// to be promoted under TierHotPage; HotPageEpochCycles the epoch
	// length. Only TierHotPage reads them.
	HotPageThreshold   int
	HotPageEpochCycles uint64
}

// DefaultTierConfig returns an NVM/CXL-class tier under the given placement
// policy: ~3x DRAM read latency, ~10x write latency, a 16 GB/s ceiling
// (about a fifth of the Table I server's four DDR4-3200 channels), and a
// 64-access hot-page bar over 1M-cycle epochs.
func DefaultTierConfig(policy string) TierConfig {
	return TierConfig{
		Policy:             policy,
		DRAMBytes:          0,
		ReadLatency:        300,
		WriteLatency:       1000,
		BandwidthGBps:      16,
		HotPageThreshold:   64,
		HotPageEpochCycles: 1 << 20,
	}
}

// Enabled reports whether a second tier is configured.
func (c TierConfig) Enabled() bool { return c.Policy != "" }

// Validate rejects contradictory tier knob combinations before any
// simulation runs.
func (c TierConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch c.Policy {
	case TierStatic, TierHotPage:
	default:
		return fmt.Errorf("mem: unknown tier placement policy %q (have %s)",
			c.Policy, strings.Join(TierPolicies(), ", "))
	}
	if c.DRAMBytes > addr.MaxLocalAddr {
		return fmt.Errorf("mem: tier split %d bytes exceeds the 2^48 local address space", c.DRAMBytes)
	}
	if c.BandwidthGBps <= 0 {
		return fmt.Errorf("mem: tier bandwidth %.2f GB/s must be positive", c.BandwidthGBps)
	}
	if c.ReadLatency == 0 || c.WriteLatency == 0 {
		return fmt.Errorf("mem: tier latencies must be positive (read %d, write %d)",
			c.ReadLatency, c.WriteLatency)
	}
	if c.Policy == TierHotPage {
		if c.HotPageThreshold < 1 {
			return fmt.Errorf("mem: hot-page threshold %d must be at least 1", c.HotPageThreshold)
		}
		if c.HotPageEpochCycles < 1024 {
			return fmt.Errorf("mem: hot-page epoch of %d cycles is too short to observe reuse", c.HotPageEpochCycles)
		}
	}
	return nil
}

// Tier1 models the slow memory tier: a flat-latency, bandwidth-limited
// device (CXL memory expander or NVM DIMM class). A single serialization
// cursor models the device link; reads and writes pay asymmetric unloaded
// latencies on top of queuing behind it.
type Tier1 struct {
	readLat     uint64
	writeLat    uint64
	lineCycles  uint64 // link occupancy per 64B read transfer
	writeCycles uint64 // link occupancy per 64B write (cell-write derated)
	gbps        float64

	busFreeAt uint64
	reads     uint64
	writes    uint64
	busBusy   uint64
}

// NewTier1 builds the slow tier for a machine clocked at cpuHz. Writes
// occupy the device proportionally longer than reads by the configured
// latency asymmetry, so sustained write bandwidth derates the same way
// NVM cell writes derate a real device's read ceiling.
func NewTier1(cfg TierConfig, cpuHz float64) *Tier1 {
	lc := uint64(math.Ceil(cpuHz * float64(lineBytes) / (cfg.BandwidthGBps * 1e9)))
	if lc == 0 {
		lc = 1
	}
	return &Tier1{
		readLat:     cfg.ReadLatency,
		writeLat:    cfg.WriteLatency,
		lineCycles:  lc,
		writeCycles: lc * ((cfg.WriteLatency + cfg.ReadLatency - 1) / cfg.ReadLatency),
		gbps:        cfg.BandwidthGBps,
	}
}

// Reset returns the tier to its just-constructed state.
func (t *Tier1) Reset() {
	t.busFreeAt, t.reads, t.writes, t.busBusy = 0, 0, 0, 0
}

// occupy serializes one transfer of the given occupancy on the device link
// starting no earlier than now, returning when the transfer begins.
func (t *Tier1) occupy(now, cycles uint64) uint64 {
	start := now
	if t.busFreeAt > start {
		start = t.busFreeAt
	}
	t.busFreeAt = start + cycles
	t.busBusy += cycles
	return start
}

// Read fetches one line, returning the completion cycle.
func (t *Tier1) Read(now uint64, a uint64) uint64 {
	_ = a
	t.reads++
	return t.occupy(now, t.lineCycles) + t.readLat
}

// Write stores one line (posted — the device absorbs it, so nothing waits on
// the returned completion, but the cell write occupies the device longer
// than a read transfer, derating sustained write bandwidth).
func (t *Tier1) Write(now uint64, a uint64) uint64 {
	_ = a
	t.writes++
	return t.occupy(now, t.writeCycles) + t.writeLat
}

// Reads, Writes and Transactions report cumulative access counts.
func (t *Tier1) Reads() uint64        { return t.reads }
func (t *Tier1) Writes() uint64       { return t.writes }
func (t *Tier1) Transactions() uint64 { return t.reads + t.writes }

// PeakGBps returns the tier's bandwidth ceiling.
func (t *Tier1) PeakGBps() float64 { return t.gbps }

// RegisterMetrics exposes the tier's activity as mem.tier1.* metrics.
func (t *Tier1) RegisterMetrics(r *obs.Registry) {
	r.Counter("mem.tier1.reads", func() uint64 { return t.reads })
	r.Counter("mem.tier1.writes", func() uint64 { return t.writes })
	r.Counter("mem.tier1.bus_busy_cycles", func() uint64 { return t.busBusy })
}

func (t *Tier1) String() string {
	return fmt.Sprintf("tier1{r:%d w:%d %gGB/s}", t.readLat, t.writeLat, t.gbps)
}

// Placement decides, per access, which tier owns an address. Static
// placement is a single boundary compare; the hot-page heuristic counts
// cold-region accesses per page per epoch and keeps pages that clear the
// threshold on tier 0 for the next epoch. Promotion state advances lazily
// from access timestamps, so no engine events are needed and decisions are
// deterministic for a deterministic access sequence.
type Placement struct {
	policy    string
	tierBase  uint64 // first tier-1-candidate address
	threshold uint32
	epoch     uint64

	hot        map[uint64]bool
	counts     map[uint64]uint32
	epochEnd   uint64
	promotions uint64
	demotions  uint64
}

// NewPlacement builds the placement policy for an app heap starting at
// appBase. Callers pass a validated, enabled TierConfig.
func NewPlacement(cfg TierConfig, appBase uint64) *Placement {
	p := &Placement{
		policy:    cfg.Policy,
		tierBase:  appBase + cfg.DRAMBytes,
		threshold: uint32(cfg.HotPageThreshold),
		epoch:     cfg.HotPageEpochCycles,
	}
	if cfg.Policy == TierHotPage {
		p.hot = make(map[uint64]bool)
		p.counts = make(map[uint64]uint32)
		p.epochEnd = p.epoch
	}
	return p
}

// Reset returns the placement to its just-constructed state.
func (p *Placement) Reset() {
	if p.policy != TierHotPage {
		return
	}
	p.hot = make(map[uint64]bool)
	p.counts = make(map[uint64]uint32)
	p.epochEnd = p.epoch
	p.promotions, p.demotions = 0, 0
}

// rollover recomputes the hot set from the finished epoch's counts.
func (p *Placement) rollover(now uint64) {
	for page, n := range p.counts {
		if n >= p.threshold {
			if !p.hot[page] {
				p.hot[page] = true
				p.promotions++
			}
		} else if p.hot[page] {
			delete(p.hot, page)
			p.demotions++
		}
	}
	// Pages with zero accesses this epoch cool off too.
	for page := range p.hot {
		if _, seen := p.counts[page]; !seen {
			delete(p.hot, page)
			p.demotions++
		}
	}
	for page := range p.counts {
		delete(p.counts, page)
	}
	for p.epochEnd <= now {
		p.epochEnd += p.epoch
	}
}

// Route reports whether address a routes to tier 1 for an access at cycle
// now, recording the access in the hot-page ledger.
func (p *Placement) Route(now uint64, a uint64) bool {
	if a < p.tierBase {
		return false
	}
	if p.policy == TierStatic {
		return true
	}
	if now >= p.epochEnd {
		p.rollover(now)
	}
	page := addr.PageOf(a)
	p.counts[page]++
	return !p.hot[page]
}

// Migrations returns cumulative hot-page promotions and demotions.
func (p *Placement) Migrations() (promotions, demotions uint64) {
	return p.promotions, p.demotions
}

// RegisterMetrics exposes the placement churn as mem.tier1.* metrics.
func (p *Placement) RegisterMetrics(r *obs.Registry) {
	r.Counter("mem.tier1.promotions", func() uint64 { return p.promotions })
	r.Counter("mem.tier1.demotions", func() uint64 { return p.demotions })
	r.Gauge("mem.tier1.hot_pages", func(uint64) float64 { return float64(len(p.hot)) })
}
