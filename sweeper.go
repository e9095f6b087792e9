// Package sweeper is the public API of the Sweeper reproduction: a
// microarchitectural simulation of a 24-core server with a DDIO-capable
// integrated NIC, used to study network data leaks from the LLC to DRAM and
// the paper's fix — dropping consumed, dirty network buffers from the cache
// hierarchy without writing them back (Vemmou, Cho, Daglis: "Patching up
// Network Data Leaks with Sweeper", MICRO 2022).
//
// The package re-exports the simulator's configuration surface and the
// experiment harness that regenerates every figure of the paper's
// evaluation. Typical use:
//
//	cfg := sweeper.DefaultConfig()
//	cfg.NICMode = sweeper.ModeDDIO
//	cfg.DDIOWays = 2
//	sweeper.EnableSweeper(&cfg)
//	res := sweeper.Run(cfg, 8_000_000, 2_000_000)
//	fmt.Println(res.ThroughputMrps, res.MemBWGBps)
//
// The underlying subsystems (cache hierarchy, DDR4 model, NIC, workloads)
// live in internal packages; this facade is the supported surface.
package sweeper

import (
	"sweeper/internal/machine"
	"sweeper/internal/nic"
	"sweeper/internal/workload"
)

// Config describes one simulated server configuration; see the field
// documentation in the machine package.
type Config = machine.Config

// Results holds one measurement window's metrics.
type Results = machine.Results

// Machine is an assembled simulated server.
type Machine = machine.Machine

// TraceEvent is one DRAM transaction as observed by a trace sink; install a
// sink with (*Machine).SetTraceSink before Run.
type TraceEvent = machine.TraceEvent

// Workload registry names. Config.Workload takes any name registered with
// the workload package's driver registry; these are the built-ins.
const (
	WorkloadKVS     = workload.NameKVS
	WorkloadL3Fwd   = workload.NameL3Fwd
	WorkloadL3FwdL1 = workload.NameL3FwdL1
)

// Packet injection policies: the §III baselines (DMA, DDIO and the
// Ideal-DDIO upper bound).
const (
	ModeDMA   = nic.ModeDMA
	ModeDDIO  = nic.ModeDDIO
	ModeIdeal = nic.ModeIdeal
)

// DefaultConfig returns the paper's Table I server: 24 cores at 3.2 GHz,
// 36MB 12-way LLC, four DDR4-3200 channels, 2-way DDIO, 1024 one-KB RX
// buffers per core, the write-heavy MICA-like KVS, Sweeper off.
func DefaultConfig() Config { return machine.DefaultConfig() }

// EnableSweeper turns on application-driven RX buffer relinquishing (§V-A)
// for a configuration. The other Sweeper settings (instruction, TX
// sweeping) are left as they are.
func EnableSweeper(cfg *Config) {
	cfg.Sweeper.RXSweep = true
	cfg.Sweeper.IssueCyclesPerLine = 1
}

// EnableTXSweep additionally sets the Work Queue SweepBuffer bit so the NIC
// sweeps transmit buffers after sending them (§V-D).
func EnableTXSweep(cfg *Config) {
	cfg.Sweeper.TXSweep = true
}

// New assembles a machine, validating the configuration.
func New(cfg Config) (*Machine, error) { return machine.New(cfg) }

// Run assembles and runs a configuration for warmup cycles and then a
// measurement window of measure cycles, returning its metrics.
func Run(cfg Config, warmup, measure uint64) Results {
	return machine.MustNew(cfg).Run(warmup, measure)
}
