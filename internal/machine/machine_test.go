package machine

import (
	"testing"

	"sweeper/internal/cache"
	"sweeper/internal/core"
	"sweeper/internal/nic"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// quickCfg returns a fast-to-simulate KVS machine configuration.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.OfferedMrps = 8
	return cfg
}

// quickRun executes a short window; integration assertions only need
// first-order behaviour, not converged steady state.
func quickRun(t *testing.T, cfg Config) Results {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run(1_000_000, 800_000)
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"no cores":         func(c *Config) { c.NetCores = 0 },
		"neg xmem":         func(c *Config) { c.XMemCores = -1 },
		"no freq":          func(c *Config) { c.FreqHz = 0 },
		"no ring":          func(c *Config) { c.RingSlots = 0 },
		"no packet":        func(c *Config) { c.PacketBytes = 0 },
		"no tx":            func(c *Config) { c.TXSlots = 0 },
		"bad ways":         func(c *Config) { c.DDIOWays = 0 },
		"ways high":        func(c *Config) { c.DDIOWays = 13 },
		"no load":          func(c *Config) { c.OfferedMrps = 0 },
		"depth too deep":   func(c *Config) { c.ClosedLoopDepth = c.RingSlots + 1 },
		"kvs needs items":  func(c *Config) { c.ItemBytes = 0 },
		"bad spike prob":   func(c *Config) { c.SpikeProb = 1.5 },
		"ring not pow2":    func(c *Config) { c.RingSlots = 1000 },
		"tx not pow2":      func(c *Config) { c.TXSlots = 100 },
		"unknown workload": func(c *Config) { c.Workload = "no-such-app" },
		"unknown stream":   func(c *Config) { c.XMemCores = 2; c.XMemWorkload = "no-such-stream" },
		"no mem channels":  func(c *Config) { c.Mem.Channels = 0 },
		"removed shards":   func(c *Config) { c.Shards = 2 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", name)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTableIParameters(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NetCores != 24 || cfg.FreqHz != 3.2e9 {
		t.Fatal("cores/frequency")
	}
	if cfg.Cache.LLCBytes != 36<<20 || cfg.Cache.LLCWays != 12 || cfg.Cache.LLCLat != 35 {
		t.Fatal("LLC")
	}
	if cfg.Cache.L2Bytes != 1280<<10 || cfg.Cache.L2Ways != 20 {
		t.Fatal("L2")
	}
	if cfg.Cache.L1Bytes != 48<<10 {
		t.Fatal("L1d")
	}
	if cfg.Mem.Channels != 4 || cfg.Mem.RanksPerChannel != 4 || cfg.Mem.BanksPerRank != 8 {
		t.Fatal("memory organization")
	}
	if cfg.Cache.NoCLat != 8 {
		t.Fatal("NoC")
	}
	if cfg.DDIOWays != 2 {
		t.Fatal("DDIO default ways")
	}
}

func TestMachineAccessors(t *testing.T) {
	m := MustNew(quickCfg())
	if m.Hierarchy() == nil || m.DRAM() == nil || m.NIC() == nil ||
		m.Sweeper() == nil || m.Space() == nil || m.Engine() == nil {
		t.Fatal("nil subsystem")
	}
	if _, ok := m.Workload().(*workload.KVS); !ok {
		t.Fatalf("workload wiring: %T", m.Workload())
	}
	if m.Config().NetCores != 24 {
		t.Fatal("config passthrough")
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := MustNew(quickCfg())
	m.Run(1000, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(1000, 1000)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	r1 := quickRun(t, quickCfg())
	r2 := quickRun(t, quickCfg())
	if r1.Served != r2.Served || r1.AccessCounts != r2.AccessCounts ||
		r1.ReqLatP99 != r2.ReqLatP99 {
		t.Fatalf("same seed diverged: %+v vs %+v", r1.Served, r2.Served)
	}
	cfg := quickCfg()
	cfg.Seed = 99
	r3 := quickRun(t, cfg)
	if r1.Served == r3.Served && r1.AccessCounts == r3.AccessCounts {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestThroughputTracksOfferedLoadWhenUnderloaded(t *testing.T) {
	cfg := quickCfg()
	cfg.NICMode = nic.ModeIdeal
	cfg.OfferedMrps = 6
	r := quickRun(t, cfg)
	if r.ThroughputMrps < 5 || r.ThroughputMrps > 7 {
		t.Fatalf("throughput %.2f for 6 Mrps offered", r.ThroughputMrps)
	}
	if r.DropRate != 0 {
		t.Fatal("drops while underloaded")
	}
}

func TestIdealModeHasNoNetworkDRAMTraffic(t *testing.T) {
	cfg := quickCfg()
	cfg.NICMode = nic.ModeIdeal
	r := quickRun(t, cfg)
	for _, k := range []stats.AccessKind{stats.NICRXWr, stats.NICTXRd,
		stats.CPURXRd, stats.CPUTXRdWr, stats.RXEvct, stats.TXEvct} {
		if r.AccessCounts[k] != 0 {
			t.Fatalf("ideal mode produced %s traffic: %d", k, r.AccessCounts[k])
		}
	}
}

func TestDMAModeTrafficSignature(t *testing.T) {
	cfg := quickCfg()
	cfg.NICMode = nic.ModeDMA
	cfg.OfferedMrps = 5
	r := quickRun(t, cfg)
	if r.AccessesPerRequest[stats.NICRXWr] < 5 {
		t.Fatalf("DMA NIC RX writes %.2f/req, expected every line",
			r.AccessesPerRequest[stats.NICRXWr])
	}
	if r.AccessesPerRequest[stats.CPURXRd] < 5 {
		t.Fatalf("DMA CPU RX reads %.2f/req, expected misses", r.AccessesPerRequest[stats.CPURXRd])
	}
	if r.AccessesPerRequest[stats.RXEvct] > 1 {
		t.Fatalf("DMA should not produce RX writebacks, got %.2f", r.AccessesPerRequest[stats.RXEvct])
	}
}

func TestDDIOEliminatesNICMemoryTraffic(t *testing.T) {
	r := quickRun(t, quickCfg())
	if r.AccessCounts[stats.NICRXWr] != 0 {
		t.Fatal("DDIO let NIC RX writes reach DRAM")
	}
	if r.AccessesPerRequest[stats.CPURXRd] > 1 {
		t.Fatalf("premature evictions at low load: %.2f/req", r.AccessesPerRequest[stats.CPURXRd])
	}
}

func TestSweeperEliminatesConsumedEvictions(t *testing.T) {
	base := quickRun(t, quickCfg())

	cfg := quickCfg()
	cfg.Sweeper = core.Config{RXSweep: true, IssueCyclesPerLine: 1}
	swept := quickRun(t, cfg)

	if base.AccessesPerRequest[stats.RXEvct] < 0.5 {
		t.Fatalf("baseline shows no leak to eliminate: %.2f", base.AccessesPerRequest[stats.RXEvct])
	}
	if swept.AccessesPerRequest[stats.RXEvct] > 0.05 {
		t.Fatalf("Sweeper left %.3f RX evictions/req", swept.AccessesPerRequest[stats.RXEvct])
	}
	if swept.MemBWGBps >= base.MemBWGBps {
		t.Fatalf("Sweeper did not reduce bandwidth: %.1f vs %.1f", swept.MemBWGBps, base.MemBWGBps)
	}
	if swept.Sweeper.Relinquishes == 0 || swept.Sweeper.DroppedDirtyLines == 0 {
		t.Fatal("sweeper stats empty")
	}
	if swept.SweeperSavedGBps <= 0 {
		t.Fatal("no bandwidth savings recorded")
	}
}

func TestMemSinkClassification(t *testing.T) {
	m := MustNew(quickCfg())
	sink := m.dp
	rx := m.Space().RXBase(0)
	tx := m.Space().TXBase(0)
	app := m.Workload().(*workload.KVS).LogBase()

	sink.WritebackEvict(0, rx)
	sink.WritebackEvict(0, tx)
	sink.WritebackEvict(0, app)
	sink.DMAWrite(0, rx)
	sink.DemandRead(0, rx, cache.SrcCPU)
	sink.DemandRead(0, tx, cache.SrcCPU)
	sink.DemandRead(0, app, cache.SrcCPU)
	sink.DemandRead(0, tx, cache.SrcNIC)

	want := map[stats.AccessKind]uint64{
		stats.RXEvct:     1,
		stats.TXEvct:     1,
		stats.OtherEvct:  1,
		stats.NICRXWr:    1,
		stats.CPURXRd:    1,
		stats.CPUTXRdWr:  1,
		stats.CPUOtherRd: 1,
		stats.NICTXRd:    1,
	}
	for k, n := range want {
		if m.dp.breakdown.Count(k) != n {
			t.Errorf("%v = %d, want %d", k, m.dp.breakdown.Count(k), n)
		}
	}
}

func TestBandwidthAccountingConsistency(t *testing.T) {
	r := quickRun(t, quickCfg())
	var total uint64
	for _, c := range r.AccessCounts {
		total += c
	}
	implied := stats.GBps(total, r.MeasuredCycles, 3.2e9)
	if diff := r.MemBWGBps - implied; diff > 0.01 || diff < -0.01 {
		t.Fatalf("bandwidth %.3f vs breakdown-implied %.3f", r.MemBWGBps, implied)
	}
}

func TestOverloadFillsRingsAndDrops(t *testing.T) {
	cfg := quickCfg()
	cfg.RingSlots = 32
	// Shallow rings keep the system fast (the paper's shallow-buffering
	// upside), so true overload needs a very high arrival rate.
	cfg.OfferedMrps = 250
	r := quickRun(t, cfg)
	if r.Dropped == 0 || r.DropRate == 0 {
		t.Fatal("tiny rings under overload must drop")
	}
}

func TestSpikesInflateTailLatency(t *testing.T) {
	base := quickRun(t, quickCfg())
	cfg := quickCfg()
	cfg.SpikeProb = 0.05
	cfg.SpikeMinCycles = 50_000
	cfg.SpikeMaxCycles = 50_001
	spiky := quickRun(t, cfg)
	if spiky.ReqLatP99 < base.ReqLatP99+10_000 {
		t.Fatalf("spikes did not lift p99: %d vs %d", spiky.ReqLatP99, base.ReqLatP99)
	}
}

func TestClosedLoopKeepsQueuesAndSaturates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.NameL3Fwd
	cfg.ItemBytes = 0
	cfg.RingSlots = 512
	cfg.TXSlots = 512
	cfg.ClosedLoopDepth = 50
	cfg.OfferedMrps = 0
	m := MustNew(cfg)
	r := m.Run(800_000, 500_000)
	if r.Served == 0 {
		t.Fatal("closed loop served nothing")
	}
	// Rings must hold ~depth unconsumed packets at all times.
	q := m.NIC().Ring(0).Queued()
	if q < 45 || q > 55 {
		t.Fatalf("ring queue depth %d, want ~50", q)
	}
}

func TestCollocationReportsXMemIPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.NameL3FwdL1
	cfg.ItemBytes = 0
	cfg.NetCores = 4
	cfg.XMemCores = 4
	cfg.RingSlots = 256
	cfg.TXSlots = 256
	cfg.ClosedLoopDepth = 16
	cfg.OfferedMrps = 0
	r := quickRun(t, cfg)
	if r.XMemIPC <= 0 || r.XMemAccesses == 0 {
		t.Fatalf("xmem metrics missing: %+v", r.XMemIPC)
	}
}

func TestPartitionMasksRestrictOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.NameL3FwdL1
	cfg.ItemBytes = 0
	cfg.NetCores = 4
	cfg.XMemCores = 4
	cfg.RingSlots = 512
	cfg.TXSlots = 512
	cfg.ClosedLoopDepth = 32
	cfg.OfferedMrps = 0
	cfg.NICWayMask = cache.MaskAll(4)
	cfg.NetCPUWayMask = cache.MaskAll(4)
	cfg.XMemWayMask = cache.MaskRange(4, 12)
	m := MustNew(cfg)
	m.Run(800_000, 400_000)

	// Network buffer lines must only occupy partition A (ways 0-3), so
	// their LLC occupancy is bounded by 4/12 of capacity.
	space := m.Space()
	llc := m.Hierarchy().LLC()
	netLines := llc.OccupancyByClass(func(a uint64) bool {
		cls, _ := space.Classify(a)
		return cls != 0 // RX or TX
	})
	bound := llc.Sets() * 4
	if netLines > bound {
		t.Fatalf("network data in %d lines, partition allows %d", netLines, bound)
	}
}

func TestSweepTXEliminatesTXEvictions(t *testing.T) {
	base := DefaultConfig()
	base.Workload = workload.NameL3Fwd
	base.ItemBytes = 0
	base.RingSlots = 1024
	base.TXSlots = 1024
	base.ClosedLoopDepth = 64
	base.OfferedMrps = 0
	base.DDIOWays = 2
	r1 := quickRun(t, base)

	swept := base
	swept.Sweeper = core.Config{RXSweep: true, TXSweep: true, IssueCyclesPerLine: 1}
	swept.SweepTX = true
	r2 := quickRun(t, swept)

	if r1.AccessesPerRequest[stats.TXEvct] < 0.5 {
		t.Skipf("baseline TX leak too small to compare: %.2f", r1.AccessesPerRequest[stats.TXEvct])
	}
	if r2.AccessesPerRequest[stats.TXEvct] > 0.1*r1.AccessesPerRequest[stats.TXEvct] {
		t.Fatalf("NIC-driven TX sweep left %.2f TX evictions/req (baseline %.2f)",
			r2.AccessesPerRequest[stats.TXEvct], r1.AccessesPerRequest[stats.TXEvct])
	}
}

func TestUseAfterRelinquishSanitizerCleanRun(t *testing.T) {
	cfg := quickCfg()
	cfg.Sweeper = core.Config{RXSweep: true, IssueCyclesPerLine: 1, DebugUseAfterRelinquish: true}
	m := MustNew(cfg)
	m.Run(600_000, 400_000)
	if n := len(m.Sweeper().Violations()); n != 0 {
		t.Fatalf("workload committed %d use-after-relinquish reads", n)
	}
}

func TestBuiltinWorkloadsRegistered(t *testing.T) {
	for _, name := range []string{workload.NameKVS, workload.NameL3Fwd, workload.NameL3FwdL1} {
		if _, ok := workload.Lookup(name); !ok {
			t.Errorf("builtin workload %q not registered", name)
		}
	}
	if _, ok := workload.LookupStream(workload.NameXMem); !ok {
		t.Error("builtin stream \"xmem\" not registered")
	}
}

func TestResultsString(t *testing.T) {
	r := quickRun(t, quickCfg())
	if r.String() == "" {
		t.Fatal("empty Results string")
	}
}
