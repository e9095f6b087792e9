package mem

import (
	"strings"
	"testing"

	"sweeper/internal/addr"
)

// TestTierConfigValidate is the table-driven validation for the tier knobs
// (satellite of ROADMAP item 4): contradictory combinations must be rejected
// before any simulation runs.
func TestTierConfigValidate(t *testing.T) {
	valid := DefaultTierConfig(TierHotPage)
	mutate := func(f func(*TierConfig)) TierConfig {
		c := valid
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     TierConfig
		wantErr string
	}{
		{"zero value is off", TierConfig{}, ""},
		{"default static", DefaultTierConfig(TierStatic), ""},
		{"default hotpage", valid, ""},
		{"unknown policy", mutate(func(c *TierConfig) { c.Policy = "warm" }), "unknown tier placement policy"},
		{"split past address space", mutate(func(c *TierConfig) { c.DRAMBytes = addr.MaxLocalAddr + 1 }), "exceeds the 2^48"},
		{"zero bandwidth", mutate(func(c *TierConfig) { c.BandwidthGBps = 0 }), "bandwidth"},
		{"negative bandwidth", mutate(func(c *TierConfig) { c.BandwidthGBps = -4 }), "bandwidth"},
		{"zero read latency", mutate(func(c *TierConfig) { c.ReadLatency = 0 }), "latencies"},
		{"zero write latency", mutate(func(c *TierConfig) { c.WriteLatency = 0 }), "latencies"},
		{"hot threshold zero", mutate(func(c *TierConfig) { c.HotPageThreshold = 0 }), "threshold"},
		{"hot epoch too short", mutate(func(c *TierConfig) { c.HotPageEpochCycles = 100 }), "epoch"},
		// Static placement ignores the hot-page knobs entirely.
		{"static ignores hot knobs", TierConfig{Policy: TierStatic, ReadLatency: 300,
			WriteLatency: 1000, BandwidthGBps: 16}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestTier1LatencyModel pins the device model: unloaded accesses complete
// after the configured latency, back-to-back accesses queue behind the single
// device link, and write transfers occupy the link proportionally longer than
// reads (the NVM write-bandwidth derate).
func TestTier1LatencyModel(t *testing.T) {
	cfg := DefaultTierConfig(TierStatic) // read 300, write 1000, 16 GB/s
	tier := NewTier1(cfg, 3.2e9)
	// 64 B at 16 GB/s and 3.2 GHz is 12.8 -> 13 cycles of link occupancy.
	const lineCycles = 13

	if got := tier.Read(1000, 0); got != 1000+cfg.ReadLatency {
		t.Fatalf("unloaded read completed at %d, want %d", got, 1000+cfg.ReadLatency)
	}
	// Second read issued at the same cycle queues one transfer behind.
	if got := tier.Read(1000, 64); got != 1000+lineCycles+cfg.ReadLatency {
		t.Fatalf("queued read completed at %d, want %d", got, 1000+lineCycles+cfg.ReadLatency)
	}

	tier.Reset()
	if got := tier.Write(0, 0); got != cfg.WriteLatency {
		t.Fatalf("unloaded write completed at %d, want %d", got, cfg.WriteLatency)
	}
	// writeLat/readLat = 1000/300 -> ceil 4: each write holds the link 4x a
	// read transfer, so a read behind one write starts 4*13 cycles late.
	if got := tier.Read(0, 64); got != 4*lineCycles+cfg.ReadLatency {
		t.Fatalf("read behind write completed at %d, want %d", got, 4*lineCycles+cfg.ReadLatency)
	}

	if r, w := tier.Reads(), tier.Writes(); r != 1 || w != 1 || tier.Transactions() != 2 {
		t.Fatalf("counters after reset+2 accesses: reads=%d writes=%d", r, w)
	}
}

// TestPlacementStatic checks the single-boundary policy: everything below
// appBase (the RX/TX rings) and the first DRAMBytes of the heap stay on tier
// 0; everything past the split routes to tier 1 forever.
func TestPlacementStatic(t *testing.T) {
	cfg := DefaultTierConfig(TierStatic)
	cfg.DRAMBytes = 1 << 20
	const appBase = uint64(1 << 30)
	p := NewPlacement(cfg, appBase)

	for name, tc := range map[string]struct {
		a    uint64
		tier bool
	}{
		"ring":         {appBase - 64, false},
		"heap start":   {appBase, false},
		"last dram":    {appBase + cfg.DRAMBytes - 1, false},
		"first tier1":  {appBase + cfg.DRAMBytes, true},
		"deep in heap": {appBase + 64<<20, true},
	} {
		if got := p.Route(0, tc.a); got != tc.tier {
			t.Errorf("%s: Route(%#x) = %v, want %v", name, tc.a, got, tc.tier)
		}
	}
	if pr, de := p.Migrations(); pr != 0 || de != 0 {
		t.Fatalf("static policy migrated: %d promotions, %d demotions", pr, de)
	}
}

// TestPlacementHotPage drives the promotion/demotion cycle: a cold-region
// page that clears the threshold within an epoch is served from tier 0 for
// the next epoch, and cools back to tier 1 once its traffic stops.
func TestPlacementHotPage(t *testing.T) {
	cfg := DefaultTierConfig(TierHotPage)
	cfg.HotPageThreshold = 4
	cfg.HotPageEpochCycles = 1024
	p := NewPlacement(cfg, 0)
	hot, cold := uint64(0x10000), uint64(0x20000) // distinct pages past the split

	// Epoch 0: the hot page clears the threshold, the cold one doesn't.
	for i := uint64(0); i < 4; i++ {
		if !p.Route(i, hot) {
			t.Fatalf("access %d: page tier-0 before any rollover", i)
		}
	}
	p.Route(5, cold)

	// First access of epoch 1 triggers the rollover; the hot page is now
	// resident on tier 0, the cold one still routes to tier 1.
	if p.Route(1024, hot) {
		t.Fatal("hot page not promoted at epoch rollover")
	}
	if !p.Route(1025, cold) {
		t.Fatal("cold page promoted without clearing the threshold")
	}
	if pr, _ := p.Migrations(); pr != 1 {
		t.Fatalf("promotions = %d, want 1", pr)
	}

	// Epoch 1 saw only a single hot-page access (below threshold), so the
	// next rollover demotes it.
	if p.Route(2048, cold) != true {
		t.Fatal("cold page routed to tier 0")
	}
	if !p.Route(2049, hot) {
		t.Fatal("hot page not demoted after cooling off")
	}
	if _, de := p.Migrations(); de != 1 {
		demotions := de
		t.Fatalf("demotions = %d, want 1", demotions)
	}

	// Reset restores the just-constructed state.
	p.Reset()
	if pr, de := p.Migrations(); pr != 0 || de != 0 {
		t.Fatal("Reset kept migration counters")
	}
	if !p.Route(0, hot) {
		t.Fatal("Reset kept the hot set")
	}
}
