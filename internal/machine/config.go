// Package machine assembles the full simulated server — cores, cache
// hierarchy, NoC, DRAM, NIC, Sweeper and workloads — runs warmup and
// measurement windows, and reports the metrics the paper plots: throughput
// (Mrps), memory bandwidth (GB/s), the per-request DRAM-access breakdown,
// DRAM and end-to-end latency distributions, packet drop rates and the
// X-Mem IPC proxy.
package machine

import (
	"fmt"

	"sweeper/internal/cache"
	"sweeper/internal/core"
	"sweeper/internal/mem"
	"sweeper/internal/nic"
	"sweeper/internal/workload"
)

// Config fully describes one simulated configuration. DefaultConfig returns
// the paper's Table I server; experiments override the swept knobs.
type Config struct {
	// NetCores run the networked workload; XMemCores run collocated
	// background-tenant streams (§VI-E). Table I's server has 24 cores
	// total.
	NetCores  int
	XMemCores int

	// FreqHz is the core clock (3.2 GHz).
	FreqHz float64

	// Cache and Mem configure the hierarchy and DRAM. Cache.NCores is
	// overwritten with NetCores+XMemCores during assembly.
	Cache cache.Config
	Mem   mem.Config

	// NICMode selects DMA, DDIO, IDIO or Ideal-DDIO injection; DDIOWays
	// is the LLC way allocation under DDIO.
	NICMode  nic.Mode
	DDIOWays int

	// DynamicDDIOEpoch, when positive, enables an IAT-style controller
	// (related work, §VII): every epoch (in cycles) the DDIO way
	// allocation is re-evaluated — ways grow while network leaks dominate
	// recent DRAM traffic and shrink while application traffic does,
	// within [2, LLCWays].
	DynamicDDIOEpoch uint64

	// RingSlots is RX descriptors per core ("receive buffers per core");
	// PacketBytes the MTU/slot size; TXSlots the per-core transmit ring
	// depth (responses recycle quickly, so a modest window suffices).
	// Both ring depths must be powers of two (the rings mask, not mod).
	RingSlots   int
	PacketBytes uint64
	TXSlots     int

	// Workload names the networked application in the workload registry
	// (workload.NameKVS, workload.NameL3Fwd, ... or any registered
	// driver); ItemBytes sizes KVS items (the paper pairs packet size
	// with item size).
	Workload  string
	ItemBytes uint64

	// Sweeper configures the paper's mechanism. Its TXSweep switch also
	// sets the Work Queue SweepBuffer bit on every transmission, so the
	// NIC sweeps transmitted buffers (§V-D).
	Sweeper core.Config

	// MemTier configures the hybrid second memory tier (ROADMAP item 4a).
	// The zero value keeps the machine DRAM-only. MemTier is not machine
	// geometry: the tier structures are rebuilt on every configure, so
	// pooled machines may toggle tiering across Resets.
	MemTier mem.TierConfig

	// Traffic: OfferedMrps drives the open-loop arrival process; a
	// positive ClosedLoopDepth switches to the §IV-B keep-D-queued
	// closed loop instead. Arrival selects and tunes the open-loop
	// process (Poisson by default; MMPP, trace replay, diurnal envelope
	// and flow-population knobs per nic.ArrivalConfig).
	OfferedMrps     float64
	ClosedLoopDepth int
	Arrival         nic.ArrivalConfig

	// NeBuLaDropDepth, when positive, enables the related-work baseline
	// of proactive packet dropping (§II-C): the NIC drops arrivals once
	// a ring holds that many unconsumed packets, bounding buffer
	// occupancy by policy.
	NeBuLaDropDepth int

	// NICWayMask, XMemWayMask and NetCPUWayMask, when non-zero, override
	// the LLC allocation masks for the NIC, the X-Mem cores and the
	// networked cores respectively (the §VI-E partition scenarios).
	NICWayMask    cache.WayMask
	XMemWayMask   cache.WayMask
	NetCPUWayMask cache.WayMask

	// Service-time spikes (§VI-F): with probability SpikeProb a request
	// suffers an extra delay uniform in [SpikeMinCycles, SpikeMaxCycles].
	SpikeProb      float64
	SpikeMinCycles uint64
	SpikeMaxCycles uint64

	// PollCycles is the fixed per-request dispatch overhead.
	PollCycles uint64

	// MLPWidth is the cores' memory-level parallelism: independent
	// accesses kept in flight concurrently (MSHR-bounded overlap of the
	// Table I OoO cores).
	MLPWidth int

	// ObsSampleCycles, when positive, arms the observability sampler for
	// every Run of this configuration: registered metrics are snapshotted
	// each ObsSampleCycles simulated cycles into a time-series retrievable
	// via ObsSeries/BuildManifest. Zero leaves sampling off unless
	// EnableSampling is called explicitly.
	ObsSampleCycles uint64

	// WarmLLC pre-fills the LLC with dirty application data (KVS log
	// lines) so short measurement windows see steady-state eviction
	// behaviour instead of a cold 36MB cache slowly filling. Only
	// workloads that opt in (workload.LLCWarmer) are affected.
	WarmLLC bool

	// Shards is kept only so perfbench/unit.go compiles; Validate rejects
	// any non-zero value and nothing else reads it.
	Shards int

	// Sampling selects the sampled-simulation mode: instead of timing every
	// cycle of the measurement window, the run alternates short detailed
	// intervals with functionally-executed fast-forward intervals and
	// reports per-metric confidence intervals (Results.Sampled). The zero
	// value (Mode "") runs fully detailed.
	Sampling SamplingConfig

	// Seed makes runs reproducible.
	Seed int64
}

// SamplingConfig tunes the sampled-simulation mode (DESIGN.md §12). All
// fields are plain scalars so Config stays comparable. Zero values select
// documented defaults (see withDefaults); Mode "" or "off" disables sampling.
type SamplingConfig struct {
	// Mode is "" or "off" (full detailed run), "fixed" (a fixed number of
	// detailed intervals) or "ci" (adaptive: keep adding detailed/fast-
	// forward interval pairs until the 95% CI half-widths of throughput and
	// AMAT fall within MaxRelCI of their means, up to MaxIntervals).
	Mode string
	// DetailedCycles is the length of each fully-timed measured interval.
	// An unmeasured timed prefix of equal length precedes each one, to
	// absorb the timing bias of entering from a fast-forward span.
	DetailedCycles uint64
	// FastForwardCycles is the length of each functional interval between
	// detailed ones.
	FastForwardCycles uint64
	// Intervals is the detailed-interval count in "fixed" mode.
	Intervals int
	// MaxIntervals caps "ci" mode.
	MaxIntervals int
	// WarmupWindowCycles, WarmupMetricTol and WarmupWindows drive warm-up
	// detection: the run fast-forwards until the windowed deltas of served
	// throughput, LLC hit rate and the functional latency proxy all stay
	// within WarmupMetricTol for WarmupWindows consecutive windows (or the
	// warmup budget passed to Run expires). Each metric's tolerance is
	// floored at 3x its own per-window sampling noise (Poisson for counts,
	// binomial for the hit rate), so the knob expresses detectable drift,
	// not shot noise.
	WarmupWindowCycles uint64
	WarmupMetricTol    float64
	WarmupWindows      int
	// MaxRelCI is the "ci"-mode target: the relative 95% CI half-width both
	// throughput and AMAT must reach.
	MaxRelCI float64
}

// Enabled reports whether the configuration selects sampled simulation.
func (s SamplingConfig) Enabled() bool { return s.Mode != "" && s.Mode != samplingModeOff }

const (
	samplingModeOff   = "off"
	samplingModeFixed = "fixed"
	samplingModeCI    = "ci"
)

// withDefaults fills unset knobs with the tuned defaults the error-bound
// test validates against.
func (s SamplingConfig) withDefaults() SamplingConfig {
	if s.DetailedCycles == 0 {
		s.DetailedCycles = 32_768
	}
	if s.FastForwardCycles == 0 {
		s.FastForwardCycles = s.DetailedCycles
	}
	if s.Intervals <= 0 {
		s.Intervals = 8
	}
	if s.MaxIntervals <= 0 {
		s.MaxIntervals = 64
	}
	if s.WarmupWindowCycles == 0 {
		s.WarmupWindowCycles = 131_072
	}
	if s.WarmupMetricTol == 0 {
		s.WarmupMetricTol = 0.005
	}
	if s.WarmupWindows <= 0 {
		s.WarmupWindows = 2
	}
	if s.MaxRelCI == 0 {
		s.MaxRelCI = 0.05
	}
	return s
}

// validate reports sampling-knob errors.
func (s SamplingConfig) validate() error {
	switch s.Mode {
	case "", samplingModeOff, samplingModeFixed, samplingModeCI:
	default:
		return fmt.Errorf("machine: unknown sampling mode %q (want off, fixed or ci)", s.Mode)
	}
	switch {
	case s.WarmupMetricTol < 0 || s.WarmupMetricTol > 1:
		return fmt.Errorf("machine: Sampling.WarmupMetricTol %g outside [0,1]", s.WarmupMetricTol)
	case s.MaxRelCI < 0 || s.MaxRelCI > 1:
		return fmt.Errorf("machine: Sampling.MaxRelCI %g outside [0,1]", s.MaxRelCI)
	case s.Intervals < 0 || s.MaxIntervals < 0 || s.WarmupWindows < 0:
		return fmt.Errorf("machine: Sampling interval counts must be non-negative")
	}
	return nil
}

// DefaultConfig returns the Table I system: 24 cores at 3.2 GHz, 48KB L1d /
// 1.25MB L2 / 36MB 12-way LLC, four DDR4-3200 channels, 2-way DDIO, 1024
// RX buffers per core of 1KB, the write-heavy KVS, Sweeper off.
func DefaultConfig() Config {
	return Config{
		NetCores:    24,
		FreqHz:      3.2e9,
		Cache:       cache.DefaultConfig(24),
		Mem:         mem.DefaultConfig(),
		NICMode:     nic.ModeDDIO,
		DDIOWays:    2,
		RingSlots:   1024,
		PacketBytes: 1024,
		TXSlots:     128,
		Workload:    workload.NameKVS,
		ItemBytes:   1024,
		Sweeper:     core.Config{RXSweep: false, IssueCyclesPerLine: 1},
		OfferedMrps: 10,
		PollCycles:  50,
		MLPWidth:    12,
		WarmLLC:     true,
		Seed:        1,
	}
}

// Validate reports configuration errors before assembly.
func (c *Config) Validate() error {
	switch {
	case c.NetCores <= 0:
		return fmt.Errorf("machine: NetCores must be positive, got %d", c.NetCores)
	case c.XMemCores < 0:
		return fmt.Errorf("machine: XMemCores must be non-negative, got %d", c.XMemCores)
	case c.FreqHz <= 0:
		return fmt.Errorf("machine: FreqHz must be positive, got %g", c.FreqHz)
	case c.RingSlots <= 0:
		return fmt.Errorf("machine: RingSlots must be positive, got %d", c.RingSlots)
	case c.RingSlots&(c.RingSlots-1) != 0:
		return fmt.Errorf("machine: RingSlots must be a power of two, got %d", c.RingSlots)
	case c.PacketBytes == 0:
		return fmt.Errorf("machine: PacketBytes must be positive")
	case c.TXSlots <= 0:
		return fmt.Errorf("machine: TXSlots must be positive, got %d", c.TXSlots)
	case c.TXSlots&(c.TXSlots-1) != 0:
		return fmt.Errorf("machine: TXSlots must be a power of two, got %d", c.TXSlots)
	case c.Mem.Channels <= 0:
		return fmt.Errorf("machine: Mem.Channels must be positive, got %d", c.Mem.Channels)
	case c.NICMode == nic.ModeDDIO && (c.DDIOWays <= 0 || c.DDIOWays > c.Cache.LLCWays) && c.NICWayMask == 0:
		return fmt.Errorf("machine: DDIOWays %d out of range [1,%d]", c.DDIOWays, c.Cache.LLCWays)
	case c.OfferedMrps <= 0 && c.ClosedLoopDepth <= 0:
		return fmt.Errorf("machine: need OfferedMrps > 0 or ClosedLoopDepth > 0")
	case c.ClosedLoopDepth < 0:
		return fmt.Errorf("machine: ClosedLoopDepth must be non-negative, got %d", c.ClosedLoopDepth)
	case c.ClosedLoopDepth > c.RingSlots:
		return fmt.Errorf("machine: ClosedLoopDepth %d exceeds RingSlots %d", c.ClosedLoopDepth, c.RingSlots)
	case c.SpikeProb < 0 || c.SpikeProb > 1:
		return fmt.Errorf("machine: SpikeProb %g outside [0,1]", c.SpikeProb)
	case c.SpikeMinCycles > c.SpikeMaxCycles:
		return fmt.Errorf("machine: SpikeMinCycles %d exceeds SpikeMaxCycles %d", c.SpikeMinCycles, c.SpikeMaxCycles)
	case c.MLPWidth < 0:
		return fmt.Errorf("machine: MLPWidth must be non-negative, got %d", c.MLPWidth)
	case c.Shards != 0:
		return fmt.Errorf("machine: Shards %d: the sharded event engine was removed; leave it zero", c.Shards)
	}
	if err := c.Sampling.validate(); err != nil {
		return err
	}
	if err := c.Sweeper.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.MemTier.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	if c.ClosedLoopDepth > 0 && c.Arrival != (nic.ArrivalConfig{}) {
		return fmt.Errorf("machine: Arrival tunes the open loop; unset it with ClosedLoopDepth > 0")
	}
	if err := workload.ValidateParams(c.Workload, c.params()); err != nil {
		return fmt.Errorf("machine: workload %q: %w", c.Workload, err)
	}
	return nil
}

// params extracts the workload-facing parameterization of the config.
func (c *Config) params() workload.Params {
	return workload.Params{PacketBytes: c.PacketBytes, ItemBytes: c.ItemBytes}
}

// respSlotBytes returns the TX slot size: the largest response the workload
// produces, as declared by its registration.
func (c *Config) respSlotBytes() uint64 {
	return workload.TXSlotBytes(c.Workload, c.params())
}
