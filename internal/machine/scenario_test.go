package machine

import (
	"testing"

	"sweeper/internal/core"
	"sweeper/internal/nic"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// Directional sensitivity checks: these mirror the paper's sweeps at small
// scale, asserting the sign of each effect rather than magnitudes.

func TestMoreChannelsLowerLatency(t *testing.T) {
	run := func(channels int) Results {
		cfg := quickCfg()
		cfg.Mem.Channels = channels
		cfg.OfferedMrps = 10
		return quickRun(t, cfg)
	}
	r3, r8 := run(3), run(8)
	if r8.DRAMLatMean >= r3.DRAMLatMean {
		t.Fatalf("8 channels (%.0f cyc) should beat 3 channels (%.0f cyc)",
			r8.DRAMLatMean, r3.DRAMLatMean)
	}
}

func TestMoreDDIOWaysReduceRXEvictions(t *testing.T) {
	run := func(ways int) Results {
		cfg := quickCfg()
		cfg.DDIOWays = ways
		cfg.OfferedMrps = 10
		return quickRun(t, cfg)
	}
	r2, r12 := run(2), run(12)
	if r12.AccessesPerRequest[stats.RXEvct] >= r2.AccessesPerRequest[stats.RXEvct] {
		t.Fatalf("12-way RX Evct %.2f not below 2-way %.2f",
			r12.AccessesPerRequest[stats.RXEvct], r2.AccessesPerRequest[stats.RXEvct])
	}
}

func TestDeeperBuffersLeakMore(t *testing.T) {
	run := func(ring int) Results {
		cfg := quickCfg()
		cfg.RingSlots = ring
		cfg.OfferedMrps = 8
		return quickRun(t, cfg)
	}
	shallow, deep := run(128), run(2048)
	// 128x1KB/core = 3MB total fits the 2 DDIO ways (6MB); 2048 = 48MB
	// cannot. The leak must grow with provisioning (§II-C).
	if deep.AccessesPerRequest[stats.RXEvct] <= shallow.AccessesPerRequest[stats.RXEvct] {
		t.Fatalf("deep rings leak %.2f/req, shallow %.2f/req",
			deep.AccessesPerRequest[stats.RXEvct],
			shallow.AccessesPerRequest[stats.RXEvct])
	}
}

func TestSmallItemsSmallerFootprint(t *testing.T) {
	cfg := quickCfg()
	cfg.ItemBytes = 512
	cfg.PacketBytes = 512
	cfg.OfferedMrps = 10
	r := quickRun(t, cfg)
	if r.Served == 0 {
		t.Fatal("512B configuration served nothing")
	}
	// A 512B SET dirties 8 log lines (+bucket), so per-request traffic
	// must be well under the 1KB configuration's.
	if r.AccessesPerRequest[stats.OtherEvct] > 12 {
		t.Fatalf("512B items produced %.1f app writebacks/req",
			r.AccessesPerRequest[stats.OtherEvct])
	}
}

func TestMixedRequestSizesFromSizer(t *testing.T) {
	// 5% of KVS packets are key-only GETs: the NIC must see 64B and
	// 1024B arrivals. Total RX line traffic per request is then below
	// the uniform-1KB rate.
	cfg := quickCfg()
	cfg.NICMode = nic.ModeDMA // every RX line reaches DRAM: easy to count
	cfg.OfferedMrps = 4
	r := quickRun(t, cfg)
	perReq := r.AccessesPerRequest[stats.NICRXWr]
	if perReq <= 10 || perReq >= 16 {
		t.Fatalf("NIC RX Wr %.2f/req; expected ~15.3 (95%% 16-line SETs, 5%% 1-line GETs)", perReq)
	}
}

func TestSweeperImprovesLatencyUnderLoad(t *testing.T) {
	base := quickCfg()
	base.OfferedMrps = 13
	r1 := quickRun(t, base)

	swept := base
	swept.Sweeper = core.Config{RXSweep: true, IssueCyclesPerLine: 1}
	r2 := quickRun(t, swept)

	if r2.DRAMLatMean >= r1.DRAMLatMean {
		t.Fatalf("Sweeper did not reduce DRAM latency under load: %.0f vs %.0f",
			r2.DRAMLatMean, r1.DRAMLatMean)
	}
}

func TestIdealBeatsDDIOServiceTime(t *testing.T) {
	run := func(mode nic.Mode) Results {
		cfg := quickCfg()
		cfg.NICMode = mode
		cfg.OfferedMrps = 10
		return quickRun(t, cfg)
	}
	ddio, ideal := run(nic.ModeDDIO), run(nic.ModeIdeal)
	if ideal.AvgServiceCycles > ddio.AvgServiceCycles {
		t.Fatalf("ideal service %.0f worse than DDIO %.0f",
			ideal.AvgServiceCycles, ddio.AvgServiceCycles)
	}
}

func TestDRAMLatencyCDFWellFormed(t *testing.T) {
	r := quickRun(t, quickCfg())
	if len(r.DRAMLatCDF) == 0 {
		t.Fatal("no CDF points")
	}
	last := r.DRAMLatCDF[len(r.DRAMLatCDF)-1]
	if last.Fraction != 1.0 {
		t.Fatalf("CDF ends at %g", last.Fraction)
	}
	if r.DRAMLatP50 > r.DRAMLatP99 {
		t.Fatal("percentiles inverted")
	}
}

func TestXMemOnlyMachineInvalid(t *testing.T) {
	cfg := quickCfg()
	cfg.NetCores = 0
	cfg.XMemCores = 4
	if _, err := New(cfg); err == nil {
		t.Fatal("machines need at least one networked core")
	}
}

// TestWarmFillFollowsDriver checks the warm fill's one gate: the driver's
// workload.LLCWarmer opt-in. The KVS opts in; the forwarder does not.
func TestWarmFillFollowsDriver(t *testing.T) {
	llc := MustNew(quickCfg()).Hierarchy().LLC()
	if llc.ValidLines() != llc.Sets()*llc.Ways() {
		t.Fatal("KVS warm fill incomplete")
	}
	cfg := quickCfg()
	cfg.Workload = workload.NameL3Fwd
	cfg.ItemBytes = 0
	if n := MustNew(cfg).Hierarchy().LLC().ValidLines(); n != 0 {
		t.Fatalf("forwarder machine starts with %d warm lines", n)
	}
}

func TestWarmFillUsesDedicatedRegion(t *testing.T) {
	m := MustNew(quickCfg())
	// No warm line may alias KVS structures: every GET/SET address must
	// miss the warm region. The warm region starts after the KVS
	// allocations, so it suffices that warm occupancy lies beyond them.
	kvs := m.Workload().(*workload.KVS)
	kvsEnd := kvs.LogBase() + kvs.Config().LogBytes
	aliased := m.Hierarchy().LLC().OccupancyByClass(func(a uint64) bool {
		return a < kvsEnd
	})
	if aliased != 0 {
		t.Fatalf("%d warm lines alias live KVS data", aliased)
	}
}
