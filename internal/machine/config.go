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

	// NICMode selects DMA, DDIO or Ideal-DDIO injection; DDIOWays is the
	// LLC way allocation under DDIO.
	NICMode  nic.Mode
	DDIOWays int

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
	// process (Poisson by default, or MMPP with its burst knobs per
	// nic.ArrivalConfig).
	OfferedMrps     float64
	ClosedLoopDepth int
	Arrival         nic.ArrivalConfig

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

	// Shards is kept only so perfbench/unit.go compiles; Validate rejects
	// any non-zero value and nothing else reads it.
	Shards int

	// Seed makes runs reproducible.
	Seed int64
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
	case !(c.OfferedMrps*1e6 <= c.FreqHz):
		// Open-loop gaps are whole cycles: past one arrival per cycle most
		// draws truncate to zero and the clock stops advancing.
		return fmt.Errorf("machine: OfferedMrps %g must be a number no greater than %g Mrps, the cap of one arrival per cycle at FreqHz %g",
			c.OfferedMrps, c.FreqHz/1e6, c.FreqHz)
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
