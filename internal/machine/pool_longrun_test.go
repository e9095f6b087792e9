package machine

import (
	"reflect"
	"testing"

	"sweeper/internal/nic"
	"sweeper/internal/workload"
)

// fig6Cfg reproduces the Figure 6 machine shape: the paper's KVS with 1KB
// items, deep per-core rings and a 2-way DDIO partition. The narrow NIC way
// mask is what makes way *placement* (not just set content) observable, so
// this configuration is the sharpest determinism probe the pool has.
func fig6Cfg(rate float64) Config {
	cfg := DefaultConfig()
	cfg.Workload = workload.NameKVS
	cfg.PacketBytes = 1024
	cfg.RingSlots = 1024
	cfg.TXSlots = 128
	cfg.NICMode = nic.ModeDDIO
	cfg.DDIOWays = 2
	cfg.ClosedLoopDepth = 0
	cfg.OfferedMrps = rate
	return cfg
}

// TestPooledWayMaskedLLCBitIdentical is a regression test for a subtle
// recycle leak: if SetAssoc.Reset leaves the previous run's LRU ages in
// place, empty ways refill in age order rather than lowest-index-first,
// and a masked NIC insertion then evicts different lines than it would on a
// fresh machine. The effect only accumulates over long windows (short runs
// never recycle enough of the LLC), so this test runs full quick-scale
// windows — it is the pool-level mirror of the committed fig6 CSVs staying
// bit-identical.
func TestPooledWayMaskedLLCBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-window run")
	}
	target := 37.7408 // the committed fig6 2-way peak
	fresh := MustNew(fig6Cfg(target)).Run(5_000_000, 2_000_000)

	// Dirty the machine with a long run at a different rate, as a peak
	// search's probe ladder would.
	p := NewPool(1)
	m := p.MustGet(fig6Cfg(20.0))
	m.Run(5_000_000, 2_000_000)
	p.Put(m)

	recycled := p.MustGet(fig6Cfg(target))
	if recycled != m {
		t.Fatal("pool built a fresh machine instead of recycling")
	}
	pooled := recycled.Run(5_000_000, 2_000_000)
	if !reflect.DeepEqual(fresh, pooled) {
		t.Fatalf("pooled run diverged from fresh:\n  fresh:  %+v\n  pooled: %+v", fresh, pooled)
	}
}
