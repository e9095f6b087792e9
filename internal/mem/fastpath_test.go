package mem

import (
	"math/rand"
	"testing"
)

// TestMapAddrMatchesNaiveDivMod pins the strength-reduced address mapping
// to the div/mod chain it replaces, across randomized channel counts
// including the odd 3-channel sweep configuration.
func TestMapAddrMatchesNaiveDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := []Config{DefaultConfig()}
	for _, ch := range []int{1, 3, 5, 8} {
		c := DefaultConfig()
		c.Channels = ch
		cfgs = append(cfgs, c)
	}
	for i := 0; i < 30; i++ {
		c := DefaultConfig()
		c.Channels = 1 + rng.Intn(64)
		cfgs = append(cfgs, c)
	}
	for _, cfg := range cfgs {
		m := New(cfg)
		const linesPerRow = 8192 / lineBytes // Table I: 8 KiB rows
		const nBanks = 4 * 8                 // 4 ranks x 8 banks
		for j := 0; j < 5000; j++ {
			a := (rng.Uint64() >> 16) &^ (lineBytes - 1)
			li := a / lineBytes
			wantCh := int(li % uint64(cfg.Channels))
			rest := li / uint64(cfg.Channels) / linesPerRow
			wantBk := int(rest % nBanks)
			wantRow := int64(rest / nBanks)
			ch, bk, row := m.mapAddr(a)
			if ch != wantCh || bk != wantBk || row != wantRow {
				t.Fatalf("cfg %+v addr %#x: mapAddr=(%d,%d,%d), naive=(%d,%d,%d)",
					cfg, a, ch, bk, row, wantCh, wantBk, wantRow)
			}
		}
	}
}

// TestResetMatchesFresh drives the same transaction stream into a fresh
// and a recycled DDR4, asserting identical completion times and counters.
func TestResetMatchesFresh(t *testing.T) {
	run := func(m *DDR4, seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		var log []uint64
		now := uint64(0)
		for i := 0; i < 50_000; i++ {
			now += uint64(rng.Intn(20))
			a := uint64(rng.Intn(1<<24)) * lineBytes
			if rng.Intn(4) == 0 {
				m.Write(now, a)
			} else {
				log = append(log, m.Read(now, a))
			}
		}
		return append(log, m.Reads(), m.Writes())
	}

	recycled := New(DefaultConfig())
	run(recycled, 3) // previous life
	recycled.Reset()

	want := run(New(DefaultConfig()), 11)
	got := run(recycled, 11)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("transaction %d diverges: fresh %d, recycled %d", i, want[i], got[i])
		}
	}
}

// BenchmarkDDR4MapAddr isolates the channel/bank/row split (4 channels:
// one strength-reduced division; 32 banks and 128-line rows: shifts and
// masks).
func BenchmarkDDR4MapAddr(b *testing.B) {
	m := New(DefaultConfig())
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, bk, row := m.mapAddr(uint64(i) * 4096)
		sink += ch + bk + int(row)
	}
	benchSink = sink
}

var benchSink int
