package nic

import (
	"math/rand"
	"testing"
)

func TestRingGeometry(t *testing.T) {
	r := NewRing(3, 0x1000, 1024, 8)
	if r.Core() != 3 || r.Slots() != 8 || r.SlotBytes() != 1024 {
		t.Fatal("geometry accessors")
	}
	if r.SlotAddr(0) != 0x1000 || r.SlotAddr(2) != 0x1000+2048 {
		t.Fatal("slot addressing")
	}
	if r.FootprintBytes() != 8*1024 {
		t.Fatal("footprint")
	}
}

func TestRingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero slots":     func() { NewRing(0, 0, 64, 0) },
		"zero slotbytes": func() { NewRing(0, 0, 0, 4) },
		"free empty":     func() { NewRing(0, 0, 64, 4).Free() },
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

func TestRingReserveWrapsAndFills(t *testing.T) {
	r := NewRing(0, 0, 64, 3)
	for i := 0; i < 3; i++ {
		s, ok := r.Reserve()
		if !ok || s != i {
			t.Fatalf("reserve %d: slot %d ok=%v", i, s, ok)
		}
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	if _, ok := r.Reserve(); ok {
		t.Fatal("reserve succeeded on full ring")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
	r.Free()
	s, ok := r.Reserve()
	if !ok || s != 0 {
		t.Fatalf("wrap: slot %d ok=%v", s, ok)
	}
}

func TestRingFIFOOrder(t *testing.T) {
	r := NewRing(0, 0, 64, 4)
	for i := uint64(1); i <= 3; i++ {
		r.Reserve()
		r.Enqueue(Packet{Tag: i})
	}
	if r.Queued() != 3 {
		t.Fatalf("queued = %d", r.Queued())
	}
	for i := uint64(1); i <= 3; i++ {
		p, ok := r.Pop()
		if !ok || p.Tag != i {
			t.Fatalf("pop %d: %+v ok=%v", i, p, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty queue")
	}
}

func TestRingInUseVersusQueued(t *testing.T) {
	r := NewRing(0, 0, 64, 4)
	r.Reserve()
	r.Enqueue(Packet{})
	if r.InUse() != 1 || r.Queued() != 1 {
		t.Fatal("after enqueue")
	}
	r.Pop()
	if r.InUse() != 1 || r.Queued() != 0 {
		t.Fatal("pop must not free the slot")
	}
	r.Free()
	if r.InUse() != 0 {
		t.Fatal("free")
	}
}

func TestRingCounters(t *testing.T) {
	r := NewRing(0, 0, 64, 1)
	r.Reserve()
	r.Enqueue(Packet{})
	r.Reserve() // drop
	if r.Enqueued() != 1 || r.Dropped() != 1 {
		t.Fatal("counters")
	}
}

// Property: under random reserve/enqueue/pop/free traffic, occupancy
// invariants hold: 0 <= queued <= inUse <= slots.
func TestRingInvariantProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing(0, 0, 64, 1+rng.Intn(8))
		popped := 0 // packets popped but not yet freed
		for op := 0; op < 1000; op++ {
			switch rng.Intn(3) {
			case 0:
				if _, ok := r.Reserve(); ok {
					r.Enqueue(Packet{Tag: uint64(op)})
				}
			case 1:
				if _, ok := r.Pop(); ok {
					popped++
				}
			case 2:
				if popped > 0 {
					r.Free()
					popped--
				}
			}
			if r.Queued() < 0 || r.Queued() > r.InUse() || r.InUse() > r.Slots() {
				t.Fatalf("seed %d: invariant broken: queued=%d inUse=%d slots=%d",
					seed, r.Queued(), r.InUse(), r.Slots())
			}
		}
	}
}
