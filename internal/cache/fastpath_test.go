package cache

import (
	"math/rand"
	"testing"
)

// TestSetIndexMatchesNaiveDivMod pins the strength-reduced set indexing to
// the arithmetic it replaces: for any geometry — including the non-power-
// of-two set counts of Table I's 49152-set LLC — locate must return the
// plain (addr/64) % sets as the set and (addr/64) / sets + 1 as the tag,
// and tag 0 for an address beyond the tag space.
func TestSetIndexMatchesNaiveDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	geoms := []struct {
		sets, ways int
	}{
		{49152, 12}, // Table I LLC: 36MB 12-way, non-power-of-two sets
		{64, 8},     // L1
		{1024, 16},  // L2
		{1, 1},      // degenerate single set
		{3, 2},      // tiny odd set count
	}
	for i := 0; i < 40; i++ {
		geoms = append(geoms, struct{ sets, ways int }{
			sets: 1 + rng.Intn(200_000),
			ways: 1 + rng.Intn(32),
		})
	}
	for _, g := range geoms {
		c := NewSetAssoc("prop", uint64(g.sets)*uint64(g.ways)*lineBytes, g.ways)
		for j := 0; j < 5000; j++ {
			// Half the addresses inside the tag space, half anywhere.
			a := rng.Uint64() &^ (lineBytes - 1)
			if j%2 == 0 {
				a %= c.tagSpace()
			}
			line := a / lineBytes
			wantSet := int(line % uint64(g.sets))
			wantTag := uint32(0)
			if q := line / uint64(g.sets); q+1 < 1<<32 {
				wantTag = uint32(q + 1)
			}
			if s, tag := c.locate(a); s != wantSet || tag != wantTag {
				t.Fatalf("sets=%d ways=%d addr=%#x: locate=(%d,%#x), naive=(%d,%#x)",
					g.sets, g.ways, a, s, tag, wantSet, wantTag)
			}
			if wantTag != 0 && c.addrOf(wantSet, wantTag) != a {
				t.Fatalf("sets=%d addr=%#x: addrOf round trip gave %#x",
					g.sets, a, c.addrOf(wantSet, wantTag))
			}
		}
	}
}

// TestResetMatchesFreshBehaviour drives an identical operation sequence
// against a freshly built cache and a recycled one, asserting every
// observable outcome (states, victims, statistics) matches. Way masks are
// included because replacement *placement* — which way a line lands in —
// is observable through them, which is exactly what a stale-LRU Reset bug
// would corrupt.
func TestResetMatchesFreshBehaviour(t *testing.T) {
	const sets, ways = 128, 8
	run := func(c *SetAssoc, seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		var log []uint64
		addr := func() uint64 {
			return uint64(rng.Intn(sets*ways*4)) * lineBytes
		}
		for i := 0; i < 20_000; i++ {
			switch rng.Intn(6) {
			case 0:
				log = append(log, uint64(c.Lookup(addr())))
			case 1:
				mask := MaskAll(ways)
				if rng.Intn(2) == 0 {
					mask = MaskRange(0, 2) // a DDIO-like narrow partition
				}
				v := c.Insert(addr(), rng.Intn(2) == 0, mask)
				log = append(log, v.Addr, boolBit(v.Dirty)|boolBit(v.Valid)<<1|boolBit(v.Merged)<<2)
			case 2:
				p, d := c.Invalidate(addr())
				log = append(log, boolBit(p)|boolBit(d)<<1)
			case 3:
				log = append(log, boolBit(c.SetDirty(addr())))
			case 4:
				log = append(log, uint64(c.Extract(addr())))
			case 5:
				log = append(log, uint64(c.Peek(addr())))
			}
		}
		log = append(log, c.Hits(), c.Misses(), uint64(c.ValidLines()))
		return log
	}

	recycled := NewSetAssoc("recycled", sets*ways*lineBytes, ways)
	run(recycled, 7) // a previous life with a different op stream
	recycled.Reset()

	fresh := NewSetAssoc("fresh", sets*ways*lineBytes, ways)
	want := run(fresh, 99)
	got := run(recycled, 99)
	if len(want) != len(got) {
		t.Fatalf("trace lengths differ: fresh %d, recycled %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace diverges at %d: fresh %#x, recycled %#x", i, want[i], got[i])
		}
	}
	if err := recycled.checkSetInvariant(); err != nil {
		t.Fatal(err)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BenchmarkSetIndex isolates the strength-reduced division that gives the
// set and the tag on the LLC's non-power-of-two 49152 sets.
func BenchmarkSetIndex(b *testing.B) {
	c := NewSetAssoc("LLC", 36<<20, 12)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, tag := c.locate(uint64(i) * lineBytes)
		sink += s + int(tag)
	}
	benchSink = sink
}

// BenchmarkLLCLookupHit measures a repeated single-line hit, the pattern of
// poll loops: one set's tags and ages stay in the host's L1.
func BenchmarkLLCLookupHit(b *testing.B) {
	c := NewSetAssoc("LLC", 36<<20, 12)
	c.Insert(4096, false, MaskAll(12))
	c.Lookup(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(4096)
	}
}

// BenchmarkLLCLookupSpread measures hits that rotate over 1024 sets, whose
// metadata (about 64KB) stays resident in the host's L2.
func BenchmarkLLCLookupSpread(b *testing.B) {
	c := NewSetAssoc("LLC", 36<<20, 12)
	const n = 1024
	for i := uint64(0); i < n; i++ {
		c.Insert(i*lineBytes, false, MaskAll(12))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%n) * lineBytes)
	}
}

// BenchmarkSetAssocReset measures the pooled-machine reset of the full
// Table I LLC: one clear of its tags and ages, 5 bytes per line over 589k
// lines.
func BenchmarkSetAssocReset(b *testing.B) {
	c := NewSetAssoc("LLC", 36<<20, 12)
	for i := uint64(0); i < 589_824; i++ {
		c.Insert(i*lineBytes, i%2 == 0, MaskAll(12))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
	}
}

var benchSink int
