package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig(channels int) Config {
	cfg := DefaultConfig()
	cfg.Channels = channels
	return cfg
}

// newNoRefresh builds cfg's model with refresh pushed past the end of time:
// deterministic-latency tests disable it, and
// TestRefreshStallsChannelPeriodically covers it.
func newNoRefresh(cfg Config) *DDR4 {
	m := New(cfg)
	for i := range m.channels {
		m.channels[i].nextRefreshAt = math.MaxUint64
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no channels":       {Channels: 0, WriteQueueDepth: 64},
		"negative channels": {Channels: -1, WriteQueueDepth: 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestColdReadLatency(t *testing.T) {
	m := newNoRefresh(testConfig(4))
	// First read: closed bank -> tRCD + tCL + tBL, all x2 CPU cycles.
	done := m.Read(1000, 0)
	want := uint64(1000 + (22+22+4)*2)
	if done != want {
		t.Fatalf("cold read done = %d, want %d", done, want)
	}
}

func TestRowBufferHitFasterThanMiss(t *testing.T) {
	m := newNoRefresh(testConfig(1))
	base := uint64(1 << 20)
	t0 := m.Read(0, base)
	lat0 := t0 - 0
	// Same row, next column, long after: row hit.
	t1 := m.Read(100000, base+64)
	lat1 := t1 - 100000
	if lat1 >= lat0 {
		t.Fatalf("row hit latency %d not faster than activate %d", lat1, lat0)
	}
	// Different row, same bank: precharge + activate (slower than hit).
	rowStride := uint64(8192 * 32) // linesPerRow*channels*banks... use large stride
	t2 := m.Read(200000, base+rowStride*64)
	_ = t2
}

func TestConsecutiveLinesInterleaveChannels(t *testing.T) {
	m := newNoRefresh(testConfig(4))
	ch0, _, _ := m.mapAddr(0)
	ch1, _, _ := m.mapAddr(64)
	ch2, _, _ := m.mapAddr(128)
	if ch0 == ch1 || ch1 == ch2 || ch0 == ch2 {
		t.Fatalf("adjacent lines map to channels %d,%d,%d", ch0, ch1, ch2)
	}
}

func TestSameCycleReadsSerializeOnBus(t *testing.T) {
	m := newNoRefresh(testConfig(1))
	// Two same-cycle reads to different banks of one channel must occupy
	// distinct bus slots (tBL apart at least).
	a0 := uint64(0)
	a1 := uint64(8192) // different bank via row-group stride
	d0 := m.Read(0, a0)
	d1 := m.Read(0, a1)
	if d1 < d0+tBL {
		t.Fatalf("bus slots overlap: %d then %d (tBL=%d)", d0, d1, tBL)
	}
}

func TestWritesDoNotDelayReadsUntilQueueFull(t *testing.T) {
	cfg := testConfig(1)
	cfg.WriteQueueDepth = 64
	m := newNoRefresh(cfg)
	// Warm the bank so the read is a pure row hit.
	m.Read(0, 0)
	base := m.Read(10_000, 0) - 10_000

	// A handful of writes fit the write queue: the next read at the same
	// instant is not delayed.
	for i := 0; i < 16; i++ {
		m.Write(20_000, uint64(i)*64*997)
	}
	lat := m.Read(20_000, 0) - 20_000
	if lat != base {
		t.Fatalf("read behind small write queue: %d vs unloaded %d", lat, base)
	}
}

func TestWriteQueueOverflowStallsReads(t *testing.T) {
	cfg := testConfig(1)
	cfg.WriteQueueDepth = 8
	m := newNoRefresh(cfg)
	m.Read(0, 0)
	base := m.Read(10_000, 0) - 10_000

	// Flood far beyond the queue: forced drains must push the bus out.
	for i := 0; i < 512; i++ {
		m.Write(20_000, uint64(i)*64)
	}
	lat := m.Read(20_000, 0) - 20_000
	if lat <= base+100 {
		t.Fatalf("read not delayed by write flood: %d vs %d", lat, base)
	}
}

func TestIdleSlotsDrainWriteQueue(t *testing.T) {
	cfg := testConfig(1)
	cfg.WriteQueueDepth = 8
	m := newNoRefresh(cfg)
	for i := 0; i < 8; i++ {
		m.Write(0, uint64(i)*64)
	}
	// After a long idle period the queue has drained: a burst of writes
	// fits again without forced drains, so a read right after is clean.
	m.Read(1_000_000, 1<<20)
	base := m.Read(2_000_000, 1<<20) - 2_000_000
	for i := 0; i < 8; i++ {
		m.Write(3_000_000, uint64(i)*64)
	}
	lat := m.Read(3_000_000, 1<<20) - 3_000_000
	if lat != base {
		t.Fatalf("drained queue still delays reads: %d vs %d", lat, base)
	}
}

func TestTransactionCounters(t *testing.T) {
	m := newNoRefresh(testConfig(2))
	m.Read(0, 0)
	m.Read(0, 64)
	m.Write(0, 128)
	if m.Reads() != 2 || m.Writes() != 1 || m.Transactions() != 3 {
		t.Fatalf("counters: r=%d w=%d", m.Reads(), m.Writes())
	}
}

func TestPeakBandwidth(t *testing.T) {
	m := newNoRefresh(testConfig(4))
	// 4 channels x (64B per 8 CPU cycles) at 3.2GHz = 102.4 GB/s.
	got := m.PeakGBps(3.2e9)
	if got < 102 || got > 103 {
		t.Fatalf("PeakGBps = %g", got)
	}
}

func TestSaturatedReadsApproachPeakBandwidth(t *testing.T) {
	m := newNoRefresh(testConfig(4))
	rng := rand.New(rand.NewSource(1))
	var now, done uint64
	n := 100_000
	for i := 0; i < n; i++ {
		a := uint64(rng.Int63n(1<<30)) &^ 63
		d := m.Read(now, a)
		if d > done {
			done = d
		}
		// Offered faster than service: backlog forms, bus saturates.
		now += 1
	}
	bytes := float64(n * 64)
	seconds := float64(done) / 3.2e9
	gbps := bytes / seconds / 1e9
	if gbps < 0.85*m.PeakGBps(3.2e9) {
		t.Fatalf("saturated throughput %g GB/s, peak %g", gbps, m.PeakGBps(3.2e9))
	}
}

func TestModerateLoadLatencyStaysBounded(t *testing.T) {
	m := newNoRefresh(testConfig(4))
	rng := rand.New(rand.NewSource(2))
	var now, worst uint64
	for i := 0; i < 50_000; i++ {
		now += uint64(rng.ExpFloat64() * 40) // ~20% load
		a := uint64(rng.Int63n(1<<30)) &^ 63
		lat := m.Read(now, a) - now
		if lat > worst {
			worst = lat
		}
	}
	if worst > 2000 {
		t.Fatalf("worst-case latency %d at 20%% load", worst)
	}
}

// Property: a read completes no earlier than its issue time plus the
// minimum CAS+burst latency, and the model's clocks never go backward.
func TestReadLatencyLowerBoundProperty(t *testing.T) {
	m := newNoRefresh(testConfig(3))
	var last uint64
	f := func(gap uint16, addrRaw uint32) bool {
		last += uint64(gap)
		a := uint64(addrRaw) &^ 63
		done := m.Read(last, a)
		return done >= last+tCL+tBL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshStallsChannelPeriodically(t *testing.T) {
	m := New(testConfig(1))
	// Warm the row.
	m.Read(0, 0)
	base := m.Read(10_000, 0) - 10_000

	// A read issued just after a refresh boundary eats (part of) tRFC.
	refreshAt := uint64(tREFI) // CPU cycles
	lat := m.Read(refreshAt+1, 0) - (refreshAt + 1)
	if lat <= base {
		t.Fatalf("read at refresh boundary not delayed: %d vs %d", lat, base)
	}
	if m.Refreshes() == 0 {
		t.Fatal("no refreshes counted")
	}
	// Far from a boundary, latency returns to baseline.
	lat = m.Read(refreshAt+20_000, 0) - (refreshAt + 20_000)
	if lat != base {
		t.Fatalf("steady latency %d, want %d", lat, base)
	}
}

func TestRefreshDisabled(t *testing.T) {
	m := newNoRefresh(testConfig(1))
	m.Read(10_000_000, 0)
	if m.Refreshes() != 0 {
		t.Fatal("refreshes with refresh disabled")
	}
}

func TestChannelScalingIncreasesBandwidth(t *testing.T) {
	sustained := func(channels int) float64 {
		m := newNoRefresh(testConfig(channels))
		rng := rand.New(rand.NewSource(9))
		var now, done uint64
		n := 50_000
		for i := 0; i < n; i++ {
			a := uint64(rng.Int63n(1<<30)) &^ 63
			if d := m.Read(now, a); d > done {
				done = d
			}
		}
		return float64(n*64) / (float64(done) / 3.2e9) / 1e9
	}
	b3, b8 := sustained(3), sustained(8)
	if b8 < 2*b3 {
		t.Fatalf("8ch (%g GB/s) should be >2x 3ch (%g GB/s)", b8, b3)
	}
}
