package nic

import (
	"testing"

	"sweeper/internal/addr"
	"sweeper/internal/sim"
)

// fakeInjector records the architectural operations the NIC performs.
type fakeInjector struct {
	ddioWrites []uint64
	dmaWrites  []uint64
	reads      []uint64
	readsDMA   []bool
}

func (f *fakeInjector) NICWriteDDIO(now uint64, owner int, a uint64) {
	f.ddioWrites = append(f.ddioWrites, a)
}

func (f *fakeInjector) NICWriteDMA(now uint64, owner int, a uint64) {
	f.dmaWrites = append(f.dmaWrites, a)
}

func (f *fakeInjector) NICRead(now uint64, owner int, a uint64, dma bool) uint64 {
	f.reads = append(f.reads, a)
	f.readsDMA = append(f.readsDMA, dma)
	return now + 40
}

type fakeTXSweeper struct {
	enabled bool
	sweeps  []uint64
	sizes   []uint64
}

func (f *fakeTXSweeper) NICSweep(now uint64, owner int, buf, size uint64) {
	f.sweeps = append(f.sweeps, buf)
	f.sizes = append(f.sizes, size)
}

func (f *fakeTXSweeper) TXEnabled() bool { return f.enabled }

func newTestNIC(t *testing.T, mode Mode) (*NIC, *fakeInjector, *addr.Space) {
	t.Helper()
	space := addr.NewSpace(2, 8*1024, 8*1024)
	inj := &fakeInjector{}
	n := New(Config{Mode: mode, RingSlots: 8, SlotBytes: 1024}, space, inj)
	return n, inj, space
}

func TestModeString(t *testing.T) {
	if ModeDMA.String() != "DMA" || ModeDDIO.String() != "DDIO" || ModeIdeal.String() != "Ideal-DDIO" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode")
	}
}

func TestInjectDDIOWritesEveryLine(t *testing.T) {
	n, inj, space := newTestNIC(t, ModeDDIO)
	if !n.Inject(100, 1, 1024, 7) {
		t.Fatal("inject failed")
	}
	if len(inj.ddioWrites) != 16 {
		t.Fatalf("%d DDIO writes, want 16", len(inj.ddioWrites))
	}
	if inj.ddioWrites[0] != space.RXBase(1) {
		t.Fatalf("first line at %#x, want ring base", inj.ddioWrites[0])
	}
	p, ok := n.Ring(1).Pop()
	if !ok || p.Size != 1024 || p.Tag != 7 || p.Arrival != 100 {
		t.Fatalf("packet %+v", p)
	}
}

func TestInjectDMA(t *testing.T) {
	n, inj, _ := newTestNIC(t, ModeDMA)
	n.Inject(0, 0, 512, 1)
	if len(inj.dmaWrites) != 8 || len(inj.ddioWrites) != 0 {
		t.Fatalf("dma=%d ddio=%d", len(inj.dmaWrites), len(inj.ddioWrites))
	}
}

func TestInjectIdealTouchesNothing(t *testing.T) {
	space := addr.NewSpace(1, 8*1024, 8*1024)
	n := New(Config{Mode: ModeIdeal, RingSlots: 4, SlotBytes: 1024}, space, nil)
	if !n.Inject(0, 0, 1024, 1) {
		t.Fatal("ideal inject failed")
	}
	if n.Injected() != 1 {
		t.Fatal("not counted")
	}
}

func TestInjectSizePanics(t *testing.T) {
	n, _, _ := newTestNIC(t, ModeDDIO)
	for _, size := range []uint64{0, 2048} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d: expected panic", size)
				}
			}()
			n.Inject(0, 0, size, 0)
		}()
	}
}

func TestInjectDropsWhenFull(t *testing.T) {
	n, _, _ := newTestNIC(t, ModeDDIO)
	for i := 0; i < 8; i++ {
		if !n.Inject(0, 0, 64, uint64(i)) {
			t.Fatalf("inject %d failed early", i)
		}
	}
	if n.Inject(0, 0, 64, 99) {
		t.Fatal("inject succeeded on full ring")
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d", n.Dropped())
	}
}

func TestEnqueueCallbackFires(t *testing.T) {
	n, _, _ := newTestNIC(t, ModeDDIO)
	var gotCore int
	var gotNow uint64
	n.SetEnqueueCallback(func(now uint64, core int) { gotNow, gotCore = now, core })
	n.Inject(42, 1, 64, 0)
	if gotCore != 1 || gotNow != 42 {
		t.Fatalf("callback got core=%d now=%d", gotCore, gotNow)
	}
}

func TestTransmitReadsEveryLine(t *testing.T) {
	n, inj, _ := newTestNIC(t, ModeDDIO)
	n.Transmit(0, WorkQueueEntry{Owner: 0, BufAddr: 0x100000, Size: 256})
	if len(inj.reads) != 4 {
		t.Fatalf("%d TX reads, want 4", len(inj.reads))
	}
	for _, dma := range inj.readsDMA {
		if dma {
			t.Fatal("DDIO transmit flagged as DMA")
		}
	}
}

func TestTransmitDMAFlag(t *testing.T) {
	n, inj, _ := newTestNIC(t, ModeDMA)
	n.Transmit(0, WorkQueueEntry{Owner: 0, BufAddr: 0x100000, Size: 64})
	if len(inj.readsDMA) != 1 || !inj.readsDMA[0] {
		t.Fatal("DMA transmit must read via the DMA path")
	}
}

func TestTransmitIdealNoTraffic(t *testing.T) {
	space := addr.NewSpace(1, 8*1024, 8*1024)
	n := New(Config{Mode: ModeIdeal, RingSlots: 4, SlotBytes: 1024}, space, nil)
	n.Transmit(0, WorkQueueEntry{BufAddr: 0x100000, Size: 1024})
	// No injector: would panic if it tried to read.
}

func TestTransmitSweepBufferGating(t *testing.T) {
	n, _, _ := newTestNIC(t, ModeDDIO)
	sw := &fakeTXSweeper{enabled: false}
	n.SetTXSweeper(sw)

	// Flag set but sweeping disabled: no sweep.
	n.Transmit(0, WorkQueueEntry{BufAddr: 0x1000, Size: 128, SweepBuffer: true})
	if len(sw.sweeps) != 0 {
		t.Fatal("sweep ran while TX sweeping disabled")
	}

	// Enabled but flag not set: no sweep (the CPU decides per entry).
	sw.enabled = true
	n.Transmit(0, WorkQueueEntry{BufAddr: 0x1000, Size: 128})
	if len(sw.sweeps) != 0 {
		t.Fatal("sweep ran without SweepBuffer flag")
	}

	// Both: sweep the exact buffer.
	n.Transmit(0, WorkQueueEntry{BufAddr: 0x1000, Size: 128, SweepBuffer: true})
	if len(sw.sweeps) != 1 || sw.sweeps[0] != 0x1000 || sw.sizes[0] != 128 {
		t.Fatalf("sweeps = %v sizes = %v", sw.sweeps, sw.sizes)
	}
}

func TestRingFootprintValidation(t *testing.T) {
	space := addr.NewSpace(1, 1024, 1024) // room for a single 1KB slot
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: ring exceeds RX region")
		}
	}()
	New(Config{Mode: ModeDDIO, RingSlots: 2, SlotBytes: 1024}, space, &fakeInjector{})
}

func TestNilInjectorPanics(t *testing.T) {
	space := addr.NewSpace(1, 1024, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Mode: ModeDDIO, RingSlots: 1, SlotBytes: 1024}, space, nil)
}

func TestTotalQueued(t *testing.T) {
	n, _, _ := newTestNIC(t, ModeDDIO)
	n.Inject(0, 0, 64, 0)
	n.Inject(0, 1, 64, 0)
	n.Inject(0, 1, 64, 0)
	if n.TotalQueued() != 3 {
		t.Fatalf("TotalQueued = %d", n.TotalQueued())
	}
}

func TestPoissonGeneratorRate(t *testing.T) {
	space := addr.NewSpace(4, 64*1024, 1024)
	inj := &fakeInjector{}
	n := New(Config{Mode: ModeDDIO, RingSlots: 1024, SlotBytes: 64}, space, inj)
	eng := sim.NewEngine()
	// Mean gap 100 cycles -> ~10k arrivals in 1M cycles.
	inject := func(now uint64, core int, size uint64, tag uint64) { n.Inject(now, core, size, tag) }
	g, err := NewArrival(eng, ArrivalSpec{Cores: 4, Size: 64, MeanGap: 100, Seed: 1}, inject)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Keep rings drained so nothing drops.
	n.SetEnqueueCallback(func(uint64, int) {})
	drain := func(now uint64) {
		for c := 0; c < 4; c++ {
			for {
				if _, ok := n.Ring(c).Pop(); !ok {
					break
				}
				n.Ring(c).Free()
			}
		}
	}
	for i := 0; i < 100; i++ {
		eng.RunUntil(uint64(i+1) * 10_000)
		drain(eng.Now())
	}
	got := float64(g.Offered())
	if got < 8500 || got > 11500 {
		t.Fatalf("offered %g arrivals for expected ~10000", got)
	}
}

func TestPoissonSizerAndTargetCores(t *testing.T) {
	space := addr.NewSpace(4, 64*1024, 1024)
	inj := &fakeInjector{}
	n := New(Config{Mode: ModeDDIO, RingSlots: 16, SlotBytes: 1024}, space, inj)
	eng := sim.NewEngine()
	inject := func(now uint64, core int, size uint64, tag uint64) { n.Inject(now, core, size, tag) }
	g, err := NewArrival(eng, ArrivalSpec{Cores: 2, Size: 1024, MeanGap: 50, Seed: 2}, inject)
	if err != nil {
		t.Fatal(err)
	}
	g.SetSizer(func(tag uint64) uint64 { return 64 })
	g.Start()
	eng.RunUntil(5000)
	for c := 2; c < 4; c++ {
		if n.Ring(c).Enqueued() != 0 {
			t.Fatalf("core %d received traffic outside target set", c)
		}
	}
	// All packets must be sized by the sizer.
	for c := 0; c < 2; c++ {
		for {
			p, ok := n.Ring(c).Pop()
			if !ok {
				break
			}
			if p.Size != 64 {
				t.Fatalf("packet size %d, want sizer's 64", p.Size)
			}
		}
	}
}

func TestClosedLoopMaintainsDepth(t *testing.T) {
	space := addr.NewSpace(2, 64*1024, 1024)
	inj := &fakeInjector{}
	n := New(Config{Mode: ModeDDIO, RingSlots: 64, SlotBytes: 64}, space, inj)
	g := NewClosedLoopGen(n, 64, 8, 3)
	g.Start(0)
	for c := 0; c < 2; c++ {
		if n.Ring(c).Queued() != 8 {
			t.Fatalf("core %d primed with %d, want 8", c, n.Ring(c).Queued())
		}
	}
	// Consume a few and refill.
	r := n.Ring(0)
	for i := 0; i < 3; i++ {
		r.Pop()
		r.Free()
	}
	g.Refill(100, 0)
	if r.Queued() != 8 {
		t.Fatalf("refill left %d queued", r.Queued())
	}
	if g.Depth() != 8 {
		t.Fatal("Depth accessor")
	}
}

func TestClosedLoopValidation(t *testing.T) {
	space := addr.NewSpace(1, 1024, 1024)
	n := New(Config{Mode: ModeDDIO, RingSlots: 4, SlotBytes: 64}, space, &fakeInjector{})
	for name, fn := range map[string]func(){
		"zero depth": func() { NewClosedLoopGen(n, 64, 0, 1) },
		"too deep":   func() { NewClosedLoopGen(n, 64, 5, 1) },
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

func TestPoissonValidation(t *testing.T) {
	eng := sim.NewEngine()
	inject := func(uint64, int, uint64, uint64) {}
	if _, err := NewArrival(eng, ArrivalSpec{Cores: 1, Size: 64, MeanGap: 0, Seed: 1}, inject); err == nil {
		t.Fatal("expected error on non-positive gap")
	}
	if _, err := NewArrival(eng, ArrivalSpec{Cores: 0, Size: 64, MeanGap: 10, Seed: 1}, inject); err == nil {
		t.Fatal("expected error on non-positive core count")
	}
	spec := ArrivalSpec{Cores: 1, Size: 64, MeanGap: 10, Seed: 1,
		Config: ArrivalConfig{Process: "nonesuch"}}
	if _, err := NewArrival(eng, spec, inject); err == nil {
		t.Fatal("expected error on unknown process")
	}
}
