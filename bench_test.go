// Microbenchmarks of the simulator's hot paths, end-to-end run benchmarks
// and ablations of the design choices DESIGN.md calls out. The paper's
// figures are regenerated by cmd/experiments -fig, and perfbench times the
// figure-shaped work.
package sweeper_test

import (
	"testing"
	"time"

	"sweeper"
	"sweeper/internal/addr"
	"sweeper/internal/cache"
	"sweeper/internal/machine"
	"sweeper/internal/mem"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// BenchmarkAblationTXSweep measures the §V-D NIC-driven TX sweeping that
// the paper describes but leaves out of its headline evaluation.
func BenchmarkAblationTXSweep(b *testing.B) {
	run := func(txSweep bool) machine.Results {
		cfg := sweeper.DefaultConfig()
		cfg.Workload = sweeper.WorkloadL3Fwd
		cfg.ItemBytes = 0
		cfg.RingSlots = 2048
		cfg.TXSlots = 2048
		cfg.ClosedLoopDepth = 64
		cfg.OfferedMrps = 0
		sweeper.EnableSweeper(&cfg)
		if txSweep {
			sweeper.EnableTXSweep(&cfg)
		}
		return sweeper.Run(cfg, 2_000_000, 800_000)
	}
	for i := 0; i < b.N; i++ {
		base := run(false)
		tx := run(true)
		b.ReportMetric(base.AccessesPerRequest[stats.TXEvct], "acc/req:txevct-rxonly")
		b.ReportMetric(tx.AccessesPerRequest[stats.TXEvct], "acc/req:txevct-txsweep")
		b.ReportMetric(tx.ThroughputMrps/base.ThroughputMrps, "x:txsweep-gain")
	}
}

// BenchmarkAblationMLP sweeps the cores' memory-level parallelism,
// quantifying how much of the throughput story depends on access overlap.
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mlp := range []int{1, 4, 12} {
			cfg := sweeper.DefaultConfig()
			cfg.OfferedMrps = 6
			cfg.MLPWidth = mlp
			r := sweeper.Run(cfg, 1_200_000, 600_000)
			b.ReportMetric(r.AvgServiceCycles, "cyc:service-mlp"+itoa(mlp))
		}
	}
}

// BenchmarkAblationWriteQueue sweeps the memory controller's write queue
// depth: shallow queues force writes ahead of reads and re-couple the
// paper's writeback interference to read latency.
func BenchmarkAblationWriteQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []uint64{8, 64, 256} {
			cfg := sweeper.DefaultConfig()
			cfg.OfferedMrps = 10
			cfg.Mem.WriteQueueDepth = depth
			r := sweeper.Run(cfg, 1_200_000, 600_000)
			b.ReportMetric(float64(r.DRAMLatP99), "cyc:dram-p99-wq"+itoa(int(depth)))
		}
	}
}

// BenchmarkAblationDDIOWays sweeps the DDIO way allocation at fixed load —
// the knob the paper shows is insufficient without Sweeper.
func BenchmarkAblationDDIOWays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{2, 6, 12} {
			cfg := sweeper.DefaultConfig()
			cfg.OfferedMrps = 10
			cfg.DDIOWays = ways
			r := sweeper.Run(cfg, 1_500_000, 800_000)
			b.ReportMetric(r.AccessesPerRequest[stats.RXEvct], "acc/req:rxevct-w"+itoa(ways))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Microbenchmarks of the simulator's hot paths. ---

func BenchmarkCacheHierarchyReadHit(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultConfig(1), nullSink{})
	h.CPURead(0, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CPURead(uint64(i), 0, 4096)
	}
}

func BenchmarkCacheHierarchyMissChurn(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultConfig(1), nullSink{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CPURead(uint64(i), 0, uint64(i%1_000_000)*64)
	}
}

func BenchmarkLLCInsert(b *testing.B) {
	c := cache.NewSetAssoc("bench", 36<<20, 12)
	mask := cache.MaskAll(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i)*64, true, mask)
	}
}

func BenchmarkDRAMRead(b *testing.B) {
	m := mem.New(mem.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(uint64(i)*10, uint64(i%65536)*64)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := workload.NewZipf(2_400_000, 0.99, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(uint64(i))
	}
}

func BenchmarkKVSPlan(b *testing.B) {
	space := addrSpace()
	k := workload.NewKVS(workload.DefaultKVSConfig(1024))
	k.Layout(space)
	var plan workload.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PlanRequest(uint64(i), 1024, &plan)
	}
}

// BenchmarkRunOnce is the end-to-end engine benchmark: one complete machine
// run (build, warmup, measure) on the default configuration. Run with
// -benchmem to watch total allocation; the event engine itself contributes
// zero steady-state allocs (see internal/sim benchmarks), so growth here
// points at the machine model, not the scheduler.
func BenchmarkRunOnce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sweeper.DefaultConfig()
		cfg.OfferedMrps = 10
		r := sweeper.Run(cfg, 200_000, 400_000)
		if r.Served == 0 {
			b.Fatal("no requests served")
		}
	}
}

// BenchmarkRunOncePooled is BenchmarkRunOnce served from a machine pool:
// after the first iteration every run recycles the same machine through
// Machine.Reset instead of rebuilding ~15MB of caches and tables. Compare
// its -benchmem numbers against BenchmarkRunOnce to see the construction
// churn the experiment harness no longer pays; steady-state allocations are
// near zero (one small rand reseed plus result assembly).
func BenchmarkRunOncePooled(b *testing.B) {
	b.ReportAllocs()
	pool := machine.NewPool(1)
	cfg := sweeper.DefaultConfig()
	cfg.OfferedMrps = 10
	pool.Put(machine.MustNew(cfg)) // warm: measure recycling, not the first build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pool.MustGet(cfg)
		r := m.Run(200_000, 400_000)
		pool.Put(m)
		if r.Served == 0 {
			b.Fatal("no requests served")
		}
	}
}

// BenchmarkTieredRunOnce is the hybrid-memory end-to-end benchmark: one
// complete run with hot-page placement over a DRAM+tier-1 split and the SIMF
// bulk-invalidation instruction. Compare against BenchmarkRunOnce for the
// tier-routing overhead; with tiers off the datapath takes a nil-check-only
// fast path, so BenchmarkRunOnce itself must not move.
func BenchmarkTieredRunOnce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sweeper.DefaultConfig()
		cfg.OfferedMrps = 10
		cfg.Sweeper.RXSweep = true
		cfg.Sweeper.Insn = "simf"
		cfg.MemTier = mem.DefaultTierConfig(mem.TierHotPage)
		cfg.MemTier.DRAMBytes = 16 << 20
		r := sweeper.Run(cfg, 200_000, 400_000)
		if r.Served == 0 {
			b.Fatal("no requests served")
		}
		if r.Tier1Accesses == 0 {
			b.Fatal("tiered run never touched tier 1")
		}
	}
}

// BenchmarkSimulatedCyclesPerSecond measures raw simulation speed on the
// default configuration: reported metric is simulated Mcycles per wall
// second.
func BenchmarkSimulatedCyclesPerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sweeper.DefaultConfig()
		cfg.OfferedMrps = 10
		start := nowNanos()
		sweeper.Run(cfg, 1_000_000, 2_000_000)
		elapsed := float64(nowNanos()-start) / 1e9
		b.ReportMetric(3.0/elapsed, "Msimcyc/s")
	}
}

func addrSpace() *addr.Space { return addr.NewSpace(1, 64*1024, 64*1024) }

func nowNanos() int64 { return time.Now().UnixNano() }

type nullSink struct{}

func (nullSink) DemandRead(now uint64, a uint64, src cache.Requestor) uint64 { return now + 100 }
func (nullSink) WritebackEvict(now uint64, a uint64)                         {}
func (nullSink) DMAWrite(now uint64, a uint64)                               {}
