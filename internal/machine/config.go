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

	// Mem sets the DRAM's channel count and write queue; its devices are
	// always Table I's DDR4-3200. The cache hierarchy is always Table I's
	// (cache.DefaultConfig), sized to NetCores+XMemCores.
	Mem mem.Config

	// NICMode selects DMA, DDIO or Ideal-DDIO injection; DDIOWays is the
	// LLC way allocation under DDIO.
	NICMode  nic.Mode
	DDIOWays int

	// RingSlots is RX descriptors per core ("receive buffers per core");
	// PacketBytes the MTU/slot size, which is also the KVS item size (the
	// paper pairs the two); TXSlots the per-core transmit ring depth
	// (responses recycle quickly, so a modest window suffices). Both ring
	// depths must be powers of two (the rings mask, not mod).
	RingSlots   int
	PacketBytes uint64
	TXSlots     int

	// Workload names the networked application in the workload registry
	// (workload.NameKVS, workload.NameL3Fwd, ... or any registered
	// driver).
	Workload string

	// Sweeper configures the paper's mechanism. Its TXSweep switch also
	// sets the Work Queue SweepBuffer bit on every transmission, so the
	// NIC sweeps transmitted buffers (§V-D).
	Sweeper core.Config

	// Traffic: OfferedMrps drives the open-loop arrival process; a
	// positive ClosedLoopDepth switches to the §IV-B keep-D-queued
	// closed loop instead. Arrival selects the open-loop process from the
	// nic registry (Poisson by default).
	OfferedMrps     float64
	ClosedLoopDepth int
	Arrival         nic.ArrivalConfig

	// PartitionSplit, when positive, is the §VI-E disjoint LLC partition:
	// networked cores fill ways [0,PartitionSplit) and X-Mem cores the
	// rest. Zero lets every core fill every way. The NIC's ways always
	// come from DDIOWays.
	PartitionSplit int

	// SpikeProb is the chance that a request suffers a §VI-F service-time
	// spike: an extra delay uniform in [spikeMinCycles, spikeMaxCycles).
	SpikeProb float64

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
		Mem:         mem.DefaultConfig(),
		NICMode:     nic.ModeDDIO,
		DDIOWays:    2,
		RingSlots:   1024,
		PacketBytes: 1024,
		TXSlots:     128,
		Workload:    workload.NameKVS,
		Sweeper:     core.Config{RXSweep: false},
		OfferedMrps: 10,
		MLPWidth:    12,
		Seed:        1,
	}
}

// FreqHz is the core clock: Table I's 3.2 GHz.
const FreqHz = 3.2e9

// spikeMinCycles and spikeMaxCycles bound the §VI-F service-time spikes:
// 1 to 100 us at FreqHz.
const (
	spikeMinCycles = 3_200
	spikeMaxCycles = 320_000
)

// tableI holds the Table I cache parameters that do not depend on the core
// count: the LLC's way count bounds DDIOWays and PartitionSplit, and the
// latencies price Ideal-DDIO's side cache. New builds the hierarchy from
// cache.DefaultConfig for the machine's cores.
var tableI = cache.DefaultConfig(0)

// Upper bounds on the sizes that drive New's allocations: per-core cache
// metadata and rings, per-channel DRAM state and per-packet line lists. They
// sit far above any studied machine (24 cores, 2048-slot rings, 1KB packets,
// 8 channels) and keep scenario files and flags from exhausting the host.
const (
	maxCores       = 256
	maxRingSlots   = 1 << 14
	maxPacketBytes = 64 << 10
	maxMemChannels = 64
)

// Validate reports configuration errors before assembly.
func (c *Config) Validate() error {
	switch {
	case c.NetCores <= 0:
		return fmt.Errorf("machine: NetCores must be positive, got %d", c.NetCores)
	case c.XMemCores < 0:
		return fmt.Errorf("machine: XMemCores must be non-negative, got %d", c.XMemCores)
	case c.NetCores > maxCores || c.XMemCores > maxCores-c.NetCores:
		return fmt.Errorf("machine: NetCores+XMemCores must be at most %d, got %d+%d", maxCores, c.NetCores, c.XMemCores)
	case c.RingSlots <= 0:
		return fmt.Errorf("machine: RingSlots must be positive, got %d", c.RingSlots)
	case c.RingSlots&(c.RingSlots-1) != 0:
		return fmt.Errorf("machine: RingSlots must be a power of two, got %d", c.RingSlots)
	case c.RingSlots > maxRingSlots:
		return fmt.Errorf("machine: RingSlots must be at most %d, got %d", maxRingSlots, c.RingSlots)
	case c.PacketBytes == 0:
		return fmt.Errorf("machine: PacketBytes must be positive")
	case c.PacketBytes > maxPacketBytes:
		return fmt.Errorf("machine: PacketBytes must be at most %d, got %d", maxPacketBytes, c.PacketBytes)
	case c.TXSlots <= 0:
		return fmt.Errorf("machine: TXSlots must be positive, got %d", c.TXSlots)
	case c.TXSlots&(c.TXSlots-1) != 0:
		return fmt.Errorf("machine: TXSlots must be a power of two, got %d", c.TXSlots)
	case c.TXSlots > maxRingSlots:
		return fmt.Errorf("machine: TXSlots must be at most %d, got %d", maxRingSlots, c.TXSlots)
	case c.Mem.Channels <= 0:
		return fmt.Errorf("machine: Mem.Channels must be positive, got %d", c.Mem.Channels)
	case c.Mem.Channels > maxMemChannels:
		return fmt.Errorf("machine: Mem.Channels must be at most %d, got %d", maxMemChannels, c.Mem.Channels)
	case c.NICMode == nic.ModeDDIO && (c.DDIOWays <= 0 || c.DDIOWays > tableI.LLCWays):
		return fmt.Errorf("machine: DDIOWays %d out of range [1,%d]", c.DDIOWays, tableI.LLCWays)
	case c.PartitionSplit < 0 || c.PartitionSplit >= tableI.LLCWays:
		return fmt.Errorf("machine: PartitionSplit %d outside [0,%d)", c.PartitionSplit, tableI.LLCWays)
	case c.OfferedMrps <= 0 && c.ClosedLoopDepth <= 0:
		return fmt.Errorf("machine: need OfferedMrps > 0 or ClosedLoopDepth > 0")
	case !(c.OfferedMrps*1e6 <= FreqHz):
		// Open-loop gaps are whole cycles: past one arrival per cycle most
		// draws truncate to zero and the clock stops advancing.
		return fmt.Errorf("machine: OfferedMrps %g must be a number no greater than %g Mrps, the cap of one arrival per cycle at FreqHz %g",
			c.OfferedMrps, FreqHz/1e6, FreqHz)
	case c.ClosedLoopDepth < 0:
		return fmt.Errorf("machine: ClosedLoopDepth must be non-negative, got %d", c.ClosedLoopDepth)
	case c.ClosedLoopDepth > c.RingSlots:
		return fmt.Errorf("machine: ClosedLoopDepth %d exceeds RingSlots %d", c.ClosedLoopDepth, c.RingSlots)
	case c.SpikeProb < 0 || c.SpikeProb > 1:
		return fmt.Errorf("machine: SpikeProb %g outside [0,1]", c.SpikeProb)
	case c.MLPWidth < 0:
		return fmt.Errorf("machine: MLPWidth must be non-negative, got %d", c.MLPWidth)
	case c.Shards != 0:
		return fmt.Errorf("machine: Shards %d: the sharded event engine was removed; leave it zero", c.Shards)
	}
	if err := c.Sweeper.Validate(); err != nil {
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
	return workload.Params{PacketBytes: c.PacketBytes}
}

// respSlotBytes returns the TX slot size: the largest response the workload
// produces, as declared by its registration.
func (c *Config) respSlotBytes() uint64 {
	return workload.TXSlotBytes(c.Workload, c.params())
}
