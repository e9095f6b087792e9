package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lineAddr(i uint64) uint64 { return i * 64 }

func TestMaskHelpers(t *testing.T) {
	if MaskAll(0) != 0 {
		t.Fatal("MaskAll(0)")
	}
	if MaskAll(3) != 0b111 {
		t.Fatalf("MaskAll(3) = %b", MaskAll(3))
	}
	if MaskAll(32) != ^WayMask(0) {
		t.Fatal("MaskAll(32)")
	}
	if MaskRange(2, 5) != 0b11100 {
		t.Fatalf("MaskRange(2,5) = %b", MaskRange(2, 5))
	}
	if MaskRange(0, 12).Count() != 12 || MaskRange(4, 8).Count() != 4 {
		t.Fatal("Count")
	}
}

func TestNewSetAssocGeometry(t *testing.T) {
	c := NewSetAssoc("t", 36*1024*1024, 12)
	if c.Sets() != 49152 || c.Ways() != 12 {
		t.Fatalf("geometry %d x %d", c.Sets(), c.Ways())
	}
	if c.CapacityBytes() != 36*1024*1024 {
		t.Fatalf("capacity %d", c.CapacityBytes())
	}
	if c.Name() != "t" {
		t.Fatal("name")
	}
}

func TestNewSetAssocPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero ways":     func() { NewSetAssoc("x", 1024, 0) },
		"too many ways": func() { NewSetAssoc("x", 64*64, 33) },
		"indivisible":   func() { NewSetAssoc("x", 64*7, 2) },
		"empty":         func() { NewSetAssoc("x", 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLookupInsertHitMiss(t *testing.T) {
	c := NewSetAssoc("t", 64*8, 2) // 4 sets, 2 ways
	a := lineAddr(0)
	if c.Lookup(a) != Invalid {
		t.Fatal("hit in empty cache")
	}
	v := c.Insert(a, false, MaskAll(2))
	if v.Valid || v.Merged {
		t.Fatalf("insert into empty set returned %+v", v)
	}
	if c.Lookup(a) != Clean {
		t.Fatal("miss after insert")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestInsertDirtyAndMerge(t *testing.T) {
	c := NewSetAssoc("t", 64*8, 2)
	a := lineAddr(4)
	c.Insert(a, false, MaskAll(2))
	v := c.Insert(a, true, MaskAll(2))
	if !v.Merged || v.Valid {
		t.Fatalf("re-insert should merge, got %+v", v)
	}
	if c.Peek(a) != Dirty {
		t.Fatal("merge must OR dirtiness")
	}
	// Merging a clean insert over a dirty line must not lose dirtiness.
	v = c.Insert(a, false, MaskAll(2))
	if !v.Merged || c.Peek(a) != Dirty {
		t.Fatal("clean merge cleared dirty state")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc("t", 64*4, 4) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Insert(lineAddr(i), false, MaskAll(4))
	}
	c.Lookup(lineAddr(0)) // refresh 0: LRU is now line 1
	v := c.Insert(lineAddr(9), false, MaskAll(4))
	if !v.Valid || v.Addr != lineAddr(1) {
		t.Fatalf("expected line 1 evicted, got %+v", v)
	}
	if c.Peek(lineAddr(0)) == Invalid {
		t.Fatal("recently used line was evicted")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := NewSetAssoc("t", 64*2, 2) // 1 set, 2 ways
	c.Insert(lineAddr(0), true, MaskAll(2))
	c.Insert(lineAddr(1), false, MaskAll(2))
	v := c.Insert(lineAddr(2), false, MaskAll(2))
	if !v.Valid || !v.Dirty || v.Addr != lineAddr(0) {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
}

func TestWayMaskRestrictsAllocation(t *testing.T) {
	c := NewSetAssoc("t", 64*8, 8) // 1 set, 8 ways
	// Fill all ways with distinct lines.
	for i := uint64(0); i < 8; i++ {
		c.Insert(lineAddr(i), false, MaskAll(8))
	}
	// Restricted insert may only displace ways 0-1.
	v := c.Insert(lineAddr(100), false, MaskAll(2))
	if !v.Valid || v.Addr > lineAddr(1) {
		t.Fatalf("masked insert displaced way outside mask: %+v", v)
	}
	// The other 6 lines must be untouched.
	for i := uint64(2); i < 8; i++ {
		if c.Peek(lineAddr(i)) == Invalid {
			t.Fatalf("line %d outside mask evicted", i)
		}
	}
}

func TestWayMaskUpdateInPlaceIgnoresMask(t *testing.T) {
	c := NewSetAssoc("t", 64*8, 8)
	c.Insert(lineAddr(5), false, MaskAll(8)) // lands in some way
	// Re-inserting with a mask that may not cover its way still merges.
	v := c.Insert(lineAddr(5), true, MaskAll(1))
	if !v.Merged {
		t.Fatalf("update-in-place must ignore the mask, got %+v", v)
	}
}

func TestEmptyMaskPanics(t *testing.T) {
	c := NewSetAssoc("t", 64*2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty mask")
		}
	}()
	c.Insert(lineAddr(0), false, 0)
}

func TestInvalidate(t *testing.T) {
	c := NewSetAssoc("t", 64*2, 2)
	c.Insert(lineAddr(0), true, MaskAll(2))
	present, dirty := c.Invalidate(lineAddr(0))
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if c.Peek(lineAddr(0)) != Invalid {
		t.Fatal("line still present")
	}
	present, dirty = c.Invalidate(lineAddr(0))
	if present || dirty {
		t.Fatal("double invalidate reported presence")
	}
}

func TestSetDirty(t *testing.T) {
	c := NewSetAssoc("t", 64*2, 2)
	if c.SetDirty(lineAddr(0)) {
		t.Fatal("SetDirty on absent line")
	}
	c.Insert(lineAddr(0), false, MaskAll(2))
	if !c.SetDirty(lineAddr(0)) || c.Peek(lineAddr(0)) != Dirty {
		t.Fatal("SetDirty failed")
	}
}

func TestExtract(t *testing.T) {
	c := NewSetAssoc("t", 64*2, 2)
	c.Insert(lineAddr(0), true, MaskAll(2))
	if st := c.Extract(lineAddr(0)); st != Dirty {
		t.Fatalf("Extract = %v", st)
	}
	if c.Peek(lineAddr(0)) != Invalid {
		t.Fatal("extracted line still present")
	}
	if st := c.Extract(lineAddr(0)); st != Invalid {
		t.Fatal("double extract")
	}
}

func TestOccupancyHelpers(t *testing.T) {
	c := NewSetAssoc("t", 64*8, 2)
	c.Insert(lineAddr(0), false, MaskAll(2))
	c.Insert(lineAddr(1), true, MaskAll(2))
	c.Insert(lineAddr(2), false, MaskAll(2))
	if c.ValidLines() != 3 {
		t.Fatalf("ValidLines = %d", c.ValidLines())
	}
	n := c.OccupancyByClass(func(a uint64) bool { return a >= lineAddr(1) })
	if n != 2 {
		t.Fatalf("OccupancyByClass = %d", n)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "Invalid" || Clean.String() != "Clean" || Dirty.String() != "Dirty" {
		t.Fatal("state labels")
	}
}

// Property: under arbitrary operation sequences, no set ever holds two
// copies of the same line and every line sits in its home set.
func TestSetInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc("t", 64*64, 4) // 16 sets
		for op := 0; op < 2000; op++ {
			a := lineAddr(uint64(rng.Intn(128)))
			switch rng.Intn(5) {
			case 0:
				c.Lookup(a)
			case 1:
				c.Insert(a, rng.Intn(2) == 0, MaskAll(1+rng.Intn(4)))
			case 2:
				c.Invalidate(a)
			case 3:
				c.SetDirty(a)
			case 4:
				c.Extract(a)
			}
		}
		return c.checkSetInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds more lines than its capacity and lookups
// after insert always hit until an intervening eviction or invalidation.
func TestCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc("t", 64*32, 4)
		for op := 0; op < 500; op++ {
			c.Insert(lineAddr(uint64(rng.Intn(1000))), true, MaskAll(4))
			if c.ValidLines() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
