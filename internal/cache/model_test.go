package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refWay is one way of refCache.
type refWay struct {
	line    uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// refCache is the naive cache SetAssoc must match op for op: each set is a
// slice of ways stamped by one global use counter, the victim is the first
// invalid way the mask allows, and otherwise the least recently used
// allowed way.
type refCache struct {
	nsets, ways  int
	sets         map[uint64][]refWay
	use          uint64
	hits, misses uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{nsets: sets, ways: ways, sets: map[uint64][]refWay{}}
}

func (r *refCache) set(a uint64) []refWay {
	s := a / lineBytes % uint64(r.nsets)
	if r.sets[s] == nil {
		r.sets[s] = make([]refWay, r.ways)
	}
	return r.sets[s]
}

func (r *refCache) find(a uint64) *refWay {
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].line == a/lineBytes {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) touch(w *refWay) { r.use++; w.lastUse = r.use }

func (w *refWay) state() State {
	switch {
	case w == nil:
		return Invalid
	case w.dirty:
		return Dirty
	}
	return Clean
}

func (r *refCache) Lookup(a uint64) State {
	w := r.find(a)
	if w == nil {
		r.misses++
		return Invalid
	}
	r.hits++
	r.touch(w)
	return w.state()
}

func (r *refCache) Peek(a uint64) State { return r.find(a).state() }

func (r *refCache) SetDirty(a uint64) bool {
	w := r.find(a)
	if w != nil {
		w.dirty = true
		r.touch(w)
	}
	return w != nil
}

func (r *refCache) Insert(a uint64, dirty bool, mask WayMask) Victim {
	if w := r.find(a); w != nil {
		w.dirty = w.dirty || dirty
		r.touch(w)
		return Victim{Merged: true}
	}
	set, v := r.set(a), -1
	for i, w := range set {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !w.valid {
			v = i
			break
		}
		if v < 0 || w.lastUse < set[v].lastUse {
			v = i
		}
	}
	var out Victim
	if w := set[v]; w.valid {
		out = Victim{Addr: w.line * lineBytes, Dirty: w.dirty, Valid: true}
	}
	set[v] = refWay{line: a / lineBytes, valid: true, dirty: dirty}
	r.touch(&set[v])
	return out
}

func (r *refCache) Invalidate(a uint64) (present, dirty bool) {
	if w := r.find(a); w != nil {
		present, dirty = true, w.dirty
		*w = refWay{}
	}
	return present, dirty
}

func (r *refCache) Extract(a uint64) State {
	w := r.find(a)
	st := w.state()
	if w != nil {
		*w = refWay{}
	}
	return st
}

func (r *refCache) Reset() {
	clear(r.sets)
	r.hits, r.misses = 0, 0
}

func (r *refCache) validLines() int {
	n := 0
	for _, set := range r.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// runAgainstModel drives c and a fresh refCache with the same random
// operation stream and fails on the first differing return value. Addresses
// concentrate on a few hot sets, with tags drawn from a pool of about twice
// the associativity (small ones and ones near the tag-space bound), so
// replacement, merging and the clock's renumbering all run.
func runAgainstModel(t *testing.T, c *SetAssoc, rng *rand.Rand, ops int) {
	t.Helper()
	ref := newRefCache(c.Sets(), c.Ways())
	hot := []int{0, c.Sets() - 1, rng.Intn(c.Sets()), rng.Intn(c.Sets())}
	qs := make([]uint64, 2*c.Ways()+2)
	for i := range qs {
		qs[i] = uint64(rng.Intn(4 * c.Ways()))
		if i%4 == 3 {
			qs[i] = maxTag - 1 - uint64(rng.Intn(1000))
		}
	}
	addr := func() uint64 {
		return (qs[rng.Intn(len(qs))]*uint64(c.Sets()) + uint64(hot[rng.Intn(len(hot))])) * lineBytes
	}
	mask := func() WayMask {
		switch rng.Intn(4) {
		case 0:
			return MaskAll(c.Ways())
		case 1:
			return ^WayMask(0)
		}
		if m := WayMask(rng.Uint32()) & MaskAll(c.Ways()); m != 0 {
			return m
		}
		return 1 << uint(rng.Intn(c.Ways()))
	}
	for op := 0; op < ops; op++ {
		a := addr()
		var got, want any
		switch k := rng.Intn(1000); {
		case k < 250:
			got, want = c.Lookup(a), ref.Lookup(a)
		case k < 350:
			got, want = c.Peek(a), ref.Peek(a)
		case k < 650:
			d, m := rng.Intn(2) == 0, mask()
			got, want = c.Insert(a, d, m), ref.Insert(a, d, m)
		case k < 750:
			got, want = c.SetDirty(a), ref.SetDirty(a)
		case k < 830:
			p, d := c.Invalidate(a)
			rp, rd := ref.Invalidate(a)
			got, want = [2]bool{p, d}, [2]bool{rp, rd}
		case k < 999:
			got, want = c.Extract(a), ref.Extract(a)
		default:
			c.Reset()
			ref.Reset()
		}
		if got != want {
			t.Fatalf("%d sets x %d ways, op %d on %#x: got %+v, want %+v",
				c.Sets(), c.Ways(), op, a, got, want)
		}
	}
	if c.Hits() != ref.hits || c.Misses() != ref.misses || c.ValidLines() != ref.validLines() {
		t.Fatalf("%d sets x %d ways: hits/misses/lines %d/%d/%d, want %d/%d/%d",
			c.Sets(), c.Ways(), c.Hits(), c.Misses(), c.ValidLines(),
			ref.hits, ref.misses, ref.validLines())
	}
	if err := c.checkSetInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestSetAssocMatchesReferenceModel drives SetAssoc op for op beside the
// naive model over random geometries: 1-32 ways, power-of-two, odd and
// Table I's 49152 set counts, random way masks and all seven operations.
func TestSetAssocMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	setCounts := []int{1, 2, 64, 1024, 3, 7, 97, 49151, 49152}
	for i := 0; i < 24; i++ {
		sets := setCounts[i%len(setCounts)]
		ways := 1 + rng.Intn(32)
		if i < 3 {
			ways = []int{1, 12, 32}[i]
		}
		c := NewSetAssoc(fmt.Sprintf("g%d", i), uint64(sets*ways)*lineBytes, ways)
		runAgainstModel(t, c, rng, 20_000)
	}
}

// TestSetAssocClockRenumbering hammers one set far past maxAge touches and
// checks that the clock wrapped (renumbering ran) while every return value
// still matched the reference model.
func TestSetAssocClockRenumbering(t *testing.T) {
	for _, ways := range []int{1, 2, 12, 20, 32} {
		c := NewSetAssoc("one-set", uint64(ways)*lineBytes, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		ref := newRefCache(1, ways)
		wraps, prev := 0, uint8(0)
		for op := 0; op < 20_000; op++ {
			a := uint64(rng.Intn(2*ways+1)) * lineBytes
			if rng.Intn(3) == 0 {
				d := rng.Intn(2) == 0
				if got, want := c.Insert(a, d, MaskAll(ways)), ref.Insert(a, d, MaskAll(ways)); got != want {
					t.Fatalf("%d ways, op %d: insert %#x got %+v, want %+v", ways, op, a, got, want)
				}
			} else if got, want := c.Lookup(a), ref.Lookup(a); got != want {
				t.Fatalf("%d ways, op %d: lookup %#x got %v, want %v", ways, op, a, got, want)
			}
			if c.ages[ways] < prev {
				wraps++
			}
			prev = c.ages[ways]
			if op%97 == 0 {
				if err := c.checkSetInvariant(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if wraps < 10 {
			t.Fatalf("%d ways: clock renumbered %d times in 20000 ops", ways, wraps)
		}
	}
}

// TestSetInvariantCatchesCorruption corrupts set 0 of a small cache in one
// way at a time and checks that checkSetInvariant reports each.
func TestSetInvariantCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(c *SetAssoc){
		"invalid way with an age":    func(c *SetAssoc) { c.ages[3] = 1 },
		"invalid way with dirty bit": func(c *SetAssoc) { c.ages[3] = dirtyBit },
		"valid way with age 0":       func(c *SetAssoc) { c.ages[0] = dirtyBit },
		"age above the clock":        func(c *SetAssoc) { c.ages[0] = c.ages[4] + 1 },
		"two ways with one age":      func(c *SetAssoc) { c.ages[1] = c.ages[0] },
		"one line in two ways":       func(c *SetAssoc) { c.tags[1] = c.tags[0] },
		"clock not below maxAge":     func(c *SetAssoc) { c.ages[4] = maxAge },
		"aged way without a tag":     func(c *SetAssoc) { c.tags[2] = 0 },
	} {
		c := NewSetAssoc("t", 2*4*lineBytes, 4)  // 2 sets x 4 ways
		for _, line := range []uint64{0, 2, 4} { // ways 0-2 of set 0
			c.Insert(line*lineBytes, line == 2, MaskAll(4))
		}
		if err := c.checkSetInvariant(); err != nil {
			t.Fatalf("%s: before corruption: %v", name, err)
		}
		corrupt(c)
		if c.checkSetInvariant() == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// TestInsertBeyondTagSpace checks the tag-space bound: the last line below
// it is stored and found, Insert beyond it panics naming the bound, and a
// Lookup beyond it misses even when the line its truncated tag would alias
// is present.
func TestInsertBeyondTagSpace(t *testing.T) {
	c := NewSetAssoc("L1", 64*12*lineBytes, 12) // 64 sets, like Table I's L1
	end := c.tagSpace()
	if want := uint64(maxTag) * 64 * lineBytes; end != want {
		t.Fatalf("tag space ends at %#x, want %#x", end, want)
	}
	last := end - lineBytes
	c.Insert(last, true, MaskAll(12))
	if st := c.Lookup(last); st != Dirty {
		t.Fatalf("last line of the tag space: Lookup = %v", st)
	}
	c.Insert(0, false, MaskAll(12)) // tag 1 in set 0
	alias := end + 64*lineBytes     // set 0, tag 2^32+1: truncates to 1
	for _, a := range []uint64{end, alias, ^uint64(0) &^ (lineBytes - 1)} {
		if st := c.Lookup(a); st != Invalid {
			t.Fatalf("Lookup(%#x) beyond the tag space = %v", a, st)
		}
		if p, _ := c.Invalidate(a); p || c.SetDirty(a) || c.Peek(a) != Invalid {
			t.Fatalf("%#x beyond the tag space found present", a)
		}
	}
	if c.Misses() != 3 || c.Peek(0) != Clean {
		t.Fatalf("misses %d, line 0 %v", c.Misses(), c.Peek(0))
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, fmt.Sprintf("%#x", end)) {
			t.Fatalf("panic %q does not name the bound %#x", msg, end)
		}
	}()
	c.Insert(end, false, MaskAll(12))
	t.Fatal("Insert beyond the tag space did not panic")
}

// TestTableIMetadataFootprint pins the Table I hierarchy's cache metadata
// at 5 bytes per way plus one clock byte per set, about 5.6MB for 24 cores.
// It sums every slice field of every SetAssoc, so a wider element type or
// a new per-way slice fails it.
func TestTableIMetadataFootprint(t *testing.T) {
	h := NewHierarchy(DefaultConfig(24), &fakeSink{})
	caches := []*SetAssoc{h.LLC()}
	for i := 0; i < 24; i++ {
		caches = append(caches, h.L1(i), h.L2(i))
	}
	bytes, ways, sets := 0, 0, 0
	for _, c := range caches {
		v := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				bytes += f.Len() * int(f.Type().Elem().Size())
			}
		}
		ways += c.Sets() * c.Ways()
		sets += c.Sets()
	}
	if ways != 1_099_776 {
		t.Fatalf("Table I has %d ways, want 1099776", ways)
	}
	if limit := 5*ways + sets; bytes > limit {
		t.Fatalf("cache metadata %d bytes, above %d (5 per way + 1 per set)", bytes, limit)
	}
	t.Logf("%d caches, %d ways, %d sets: %.2f MB of metadata", len(caches), ways, sets, float64(bytes)/1e6)
}
