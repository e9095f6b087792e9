// Package cache implements the simulated cache hierarchy: set-associative
// arrays with per-set LRU, private L1/L2 caches per core, and a shared
// non-inclusive victim LLC with way-partitioning (DDIO ways, tenant
// partitions) and sweep (invalidate-without-writeback) support.
package cache

import (
	"fmt"
	"math/bits"

	"sweeper/internal/fastdiv"
)

const lineBytes = 64

// State is the coherence/dirtiness state of a cached line. The simulator
// models a single-socket system with one writer per line at a time, so a
// three-state (I/Clean/Dirty) model captures everything the paper measures.
type State uint8

const (
	// Invalid marks an empty way.
	Invalid State = iota
	// Clean holds data matching memory.
	Clean
	// Dirty holds data newer than memory; eviction requires a writeback
	// unless the line is swept.
	Dirty
)

// String returns a short label for the state.
func (s State) String() string {
	switch s {
	case Clean:
		return "Clean"
	case Dirty:
		return "Dirty"
	default:
		return "Invalid"
	}
}

// WayMask restricts which ways of a set an insertion may allocate into.
// Bit i set means way i is allowed. Masks implement DDIO way restriction
// and the LLC tenant partitions of §VI-E.
type WayMask uint32

// MaskAll returns a mask allowing the first n ways.
func MaskAll(n int) WayMask {
	if n >= 32 {
		return ^WayMask(0)
	}
	return WayMask(1)<<uint(n) - 1
}

// MaskRange returns a mask allowing ways [lo, hi).
func MaskRange(lo, hi int) WayMask {
	return MaskAll(hi) &^ MaskAll(lo)
}

// Count returns how many ways the mask allows.
func (m WayMask) Count() int {
	return bits.OnesCount32(uint32(m))
}

// Victim describes the outcome of an insertion: the displaced line if any,
// and whether the insertion merged into an already-present line.
type Victim struct {
	Addr   uint64
	Dirty  bool
	Valid  bool // false when nothing was displaced
	Merged bool // true when the line was already present (update in place)
}

// Way metadata. A way's tag is line/sets + 1 for line = addr/64, so the set
// (line % sets) and the tag come out of one fastdiv.DivMod, and tag 0 marks
// an invalid way. A way's age byte holds its LRU age in bits 0-6 (0 when
// invalid) and its dirty bit in bit 7. The byte after a set's last way is
// the set's clock: the highest age handed out in the set.
const (
	dirtyBit = 0x80
	ageMask  = 0x7f
	// maxAge is the clock value at which a set's ages are renumbered.
	maxAge = ageMask
	// maxTag bounds line/sets: tags are exact while line/sets+1 < 2^32.
	maxTag = 1<<32 - 1
)

// SetAssoc is a single set-associative cache array. It keys a line by
// addr/64, so callers pass line-aligned addresses.
//
// Each way costs 5 bytes, stored set by set: a 4-byte tag in tags and an
// age byte in ages, which has one extra byte per set for the set's clock. A
// touch sets the way's age to clock+1, so the ages of a set's valid ways are
// distinct and order them by last use. The victim is the allowed way with
// the lowest age, the lowest index on a tie: an invalid way (age 0) first,
// else the least recently used. Replacement only ever compares ages within
// one set, so a per-set clock picks the same victims as one global counter.
// When a clock reaches maxAge, renumber compacts the set's ages to 1..n in
// the same order; with at most 32 ways that happens at most once per 95
// touches of the set.
type SetAssoc struct {
	tags   []uint32 // ways words per set: line/sets+1, 0 when invalid
	ages   []uint8  // ways+1 bytes per set: age|dirty per way, then the clock
	setDiv fastdiv.Divisor
	ways   int
	hits   uint64
	misses uint64
	sets   int
	name   string
}

// NewSetAssoc builds a cache of the given capacity and associativity. The
// number of sets (capacity / 64B / ways) need not be a power of two —
// Table I's 36MB 12-way LLC has 49152 sets, and like real hardware the
// model simply distributes line addresses across all sets (modulo here,
// a hash in silicon).
func NewSetAssoc(name string, capacityBytes uint64, ways int) *SetAssoc {
	if ways <= 0 || ways > 32 {
		panic(fmt.Sprintf("cache %s: ways %d out of range [1,32]", name, ways))
	}
	nLines := capacityBytes / lineBytes
	if nLines == 0 || nLines%uint64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %dB not divisible into %d ways",
			name, capacityBytes, ways))
	}
	sets := int(nLines / uint64(ways))
	return &SetAssoc{
		name:   name,
		sets:   sets,
		ways:   ways,
		setDiv: fastdiv.New(uint64(sets)),
		tags:   make([]uint32, sets*ways),
		ages:   make([]uint8, sets*(ways+1)),
	}
}

// Name returns the cache's label.
func (c *SetAssoc) Name() string { return c.name }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// CapacityBytes returns the total capacity.
func (c *SetAssoc) CapacityBytes() uint64 {
	return uint64(c.sets) * uint64(c.ways) * lineBytes
}

// Hits and Misses return cumulative lookup outcomes.
func (c *SetAssoc) Hits() uint64   { return c.hits }
func (c *SetAssoc) Misses() uint64 { return c.misses }

// Reset invalidates every line and zeroes the statistics, returning the
// cache to its just-constructed state. Zeroed ages matter as much as zeroed
// tags: empty ways then fill lowest index first, as in a fresh cache, and
// way masks (DDIO, tenant partitions) make that placement observable.
func (c *SetAssoc) Reset() {
	clear(c.tags)
	clear(c.ages)
	c.hits, c.misses = 0, 0
}

// locate returns the set of line a and the tag it carries there, or tag 0
// when a lies beyond the tag space.
func (c *SetAssoc) locate(a uint64) (s int, tag uint32) {
	q, r := c.setDiv.DivMod(a / lineBytes)
	if q >= maxTag {
		return int(r), 0
	}
	return int(r), uint32(q) + 1
}

// tagSpace returns the first address beyond the tag space.
func (c *SetAssoc) tagSpace() uint64 {
	return maxTag * uint64(c.sets) * lineBytes
}

// addrOf returns the address of the line stored in set s with tag t.
func (c *SetAssoc) addrOf(s int, t uint32) uint64 {
	return (uint64(t-1)*uint64(c.sets) + uint64(s)) * lineBytes
}

// set returns set s's tags and its age bytes, clock included.
func (c *SetAssoc) set(s int) (tags []uint32, ages []uint8) {
	w := c.ways
	return c.tags[s*w : s*w+w], c.ages[s*(w+1) : s*(w+1)+w+1]
}

// find returns the set of line a and the way holding it, or way -1.
func (c *SetAssoc) find(a uint64) (s, w int) {
	s, tag := c.locate(a)
	if tag != 0 {
		for i, t := range c.tags[s*c.ways : s*c.ways+c.ways] {
			if t == tag {
				return s, i
			}
		}
	}
	return s, -1
}

// touch makes way w its set's most recently used, keeping its dirty bit.
// ages is the set's age bytes, clock last. It reports whether the clock
// reached maxAge, when the caller must renumber the set; leaving that call
// to the caller keeps touch small enough to inline.
func touch(ages []uint8, w int) (full bool) {
	n := len(ages) - 1
	clk := ages[n] + 1
	ages[w] = ages[w]&dirtyBit | clk
	ages[n] = clk
	return clk == maxAge
}

// renumber compacts a set's valid ages to 1..n, keeping their order, and
// sets the clock to n.
func renumber(ages []uint8) {
	n := len(ages) - 1
	var rank [32]uint8
	valid := uint8(0)
	for w, x := range ages[:n] {
		if x&ageMask == 0 {
			continue
		}
		valid++
		rank[w] = 1
		for _, y := range ages[:n] {
			if y&ageMask != 0 && y&ageMask < x&ageMask {
				rank[w]++
			}
		}
	}
	for w, r := range rank[:n] {
		if r != 0 {
			ages[w] = ages[w]&dirtyBit | r
		}
	}
	ages[n] = valid
}

// stateOf decodes a valid way's age byte.
func stateOf(age uint8) State {
	return Clean + State(age>>7)
}

// Lookup probes for the line, updating LRU and hit/miss statistics. It
// returns the line's state (Invalid on miss).
func (c *SetAssoc) Lookup(a uint64) State {
	s, w := c.find(a)
	if w < 0 {
		c.misses++
		return Invalid
	}
	c.hits++
	_, ages := c.set(s)
	if touch(ages, w) {
		renumber(ages)
	}
	return stateOf(ages[w])
}

// Peek probes without touching LRU or statistics.
func (c *SetAssoc) Peek(a uint64) State {
	if s, w := c.find(a); w >= 0 {
		_, ages := c.set(s)
		return stateOf(ages[w])
	}
	return Invalid
}

// SetDirty marks a present line dirty (a write hit). It reports whether the
// line was present.
func (c *SetAssoc) SetDirty(a uint64) bool {
	s, w := c.find(a)
	if w < 0 {
		return false
	}
	_, ages := c.set(s)
	ages[w] |= dirtyBit
	if touch(ages, w) {
		renumber(ages)
	}
	return true
}

// Insert places the line into the cache with the given dirtiness. If the
// line is already present it is updated in place (dirty state is OR-ed, LRU
// refreshed) regardless of mask. Otherwise the LRU way among those allowed
// by mask is replaced and returned as the victim. A zero mask panics: the
// caller must always allow at least one way. So does an address beyond the
// tag space, 2^32-1 lines per set.
func (c *SetAssoc) Insert(a uint64, dirty bool, mask WayMask) Victim {
	s, tag := c.locate(a)
	if tag == 0 {
		panic(fmt.Sprintf("cache %s: address %#x is beyond the tag space, which ends at %#x",
			c.name, a, c.tagSpace()))
	}
	var d uint8
	if dirty {
		d = dirtyBit
	}
	tags, ages := c.set(s)
	// One pass over the set resolves the merge probe and the victim choice
	// together: tags are unique per set, so at most one way can match.
	v, oldest := -1, uint8(dirtyBit) // above every age
	for w, t := range tags {
		if t == tag {
			ages[w] |= d
			if touch(ages, w) {
				renumber(ages)
			}
			return Victim{Merged: true}
		}
		if x := ages[w] & ageMask; x < oldest && mask&(1<<uint(w)) != 0 {
			v, oldest = w, x
		}
	}
	if v < 0 {
		if mask == 0 {
			panic(fmt.Sprintf("cache %s: insert with empty way mask", c.name))
		}
		panic(fmt.Sprintf("cache %s: way mask %#x selects no ways of %d",
			c.name, mask, c.ways))
	}
	var out Victim
	if t := tags[v]; t != 0 {
		out = Victim{Addr: c.addrOf(s, t), Dirty: ages[v]&dirtyBit != 0, Valid: true}
	}
	tags[v] = tag
	ages[v] = d
	if touch(ages, v) {
		renumber(ages)
	}
	return out
}

// drop invalidates way w of set s and returns its state before the drop.
func (c *SetAssoc) drop(s, w int) State {
	tags, ages := c.set(s)
	st := stateOf(ages[w])
	tags[w], ages[w] = 0, 0
	return st
}

// Invalidate drops the line without any writeback (the hardware primitive
// behind both DMA invalidations and Sweeper's sweep message). It reports
// whether a line was present and whether it was dirty.
func (c *SetAssoc) Invalidate(a uint64) (present, dirty bool) {
	if s, w := c.find(a); w >= 0 {
		return true, c.drop(s, w) == Dirty
	}
	return false, false
}

// Extract removes the line, returning its state before removal. Used when a
// line migrates between levels carrying its dirtiness with it.
func (c *SetAssoc) Extract(a uint64) State {
	if s, w := c.find(a); w >= 0 {
		return c.drop(s, w)
	}
	return Invalid
}

// OccupancyByClass counts valid lines for which classify returns true, for
// occupancy studies and tests.
func (c *SetAssoc) OccupancyByClass(classify func(addr uint64) bool) int {
	n := 0
	for i, t := range c.tags {
		if t != 0 && classify(c.addrOf(i/c.ways, t)) {
			n++
		}
	}
	return n
}

// ValidLines returns the number of non-invalid lines.
func (c *SetAssoc) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// checkSetInvariant verifies, set by set, that an invalid way has tag 0 and
// age 0, that valid ages are distinct, non-zero and at most the set's clock,
// that no line appears twice, and that every tag maps back to its own set.
// With at most 32 ways a pairwise scan beats a per-set map allocation.
func (c *SetAssoc) checkSetInvariant() error {
	for s := 0; s < c.sets; s++ {
		tags, ages := c.set(s)
		clk := ages[c.ways]
		if clk >= maxAge {
			return fmt.Errorf("cache %s: set %d clock %d not below %d", c.name, s, clk, maxAge)
		}
		for w, t := range tags {
			x := ages[w]
			if t == 0 {
				if x != 0 {
					return fmt.Errorf("cache %s: invalid way %d of set %d has age byte %#x",
						c.name, w, s, x)
				}
				continue
			}
			a := c.addrOf(s, t)
			if age := x & ageMask; age == 0 || age > clk {
				return fmt.Errorf("cache %s: line %#x in set %d has age %d, clock %d",
					c.name, a, s, age, clk)
			}
			if s2, t2 := c.locate(a); s2 != s || t2 != t {
				return fmt.Errorf("cache %s: tag %#x in set %d maps to set %d tag %#x",
					c.name, t, s, s2, t2)
			}
			for w2 := w + 1; w2 < c.ways; w2++ {
				if tags[w2] == t {
					return fmt.Errorf("cache %s: duplicate line %#x in set %d", c.name, a, s)
				}
				if tags[w2] != 0 && ages[w2]&ageMask == x&ageMask {
					return fmt.Errorf("cache %s: ways %d and %d of set %d share age %d",
						c.name, w, w2, s, x&ageMask)
				}
			}
		}
	}
	return nil
}
