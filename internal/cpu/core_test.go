package cpu

import (
	"testing"

	"sweeper/internal/addr"
	"sweeper/internal/nic"
	"sweeper/internal/sim"
	"sweeper/internal/workload"
)

// fakeEnv scripts packet delivery and records the core's actions in order.
type fakeEnv struct {
	queue   []nic.Packet
	plan    workload.Plan
	lat     uint64
	extra   uint64
	touched int // max packets to hand out (0 = all)

	trace      []string
	rxReads    []uint64
	appOps     []string
	txWrites   []uint64
	relinqs    [][2]uint64
	frees      int
	transmits  []nic.WorkQueueEntry
	done       []nic.Packet
	doneSvc    []uint64
	popCount   int
	onPops     int
	planCalled int
}

func (e *fakeEnv) PopPacket(core int) (nic.Packet, bool) {
	e.popCount++
	if len(e.queue) == 0 {
		return nic.Packet{}, false
	}
	p := e.queue[0]
	e.queue = e.queue[1:]
	return p, true
}

func (e *fakeEnv) OnPop(now uint64, core int) { e.onPops++ }

func (e *fakeEnv) PlanRequest(tag uint64, pkt uint64, plan *workload.Plan) {
	e.planCalled++
	*plan = e.plan
	plan.Ops = append([]workload.Op(nil), e.plan.Ops...)
}

func (e *fakeEnv) RXRead(now uint64, core int, a uint64) uint64 {
	e.trace = append(e.trace, "rx")
	e.rxReads = append(e.rxReads, a)
	return now + e.lat
}

func (e *fakeEnv) AppRead(now uint64, core int, a uint64) uint64 {
	e.trace = append(e.trace, "app")
	e.appOps = append(e.appOps, "r")
	return now + e.lat
}

func (e *fakeEnv) AppWrite(now uint64, core int, a uint64) uint64 {
	e.trace = append(e.trace, "app")
	e.appOps = append(e.appOps, "w")
	return now + e.lat
}

func (e *fakeEnv) AppWriteFull(now uint64, core int, a uint64) uint64 {
	e.trace = append(e.trace, "app")
	e.appOps = append(e.appOps, "W")
	return now + e.lat
}

func (e *fakeEnv) TXWrite(now uint64, core int, a uint64) uint64 {
	e.trace = append(e.trace, "tx")
	e.txWrites = append(e.txWrites, a)
	return now + e.lat
}

func (e *fakeEnv) Relinquish(now uint64, core int, buf, size uint64) uint64 {
	e.trace = append(e.trace, "relinquish")
	e.relinqs = append(e.relinqs, [2]uint64{buf, size})
	return now + 1
}

func (e *fakeEnv) FreeRXSlot(core int) {
	e.trace = append(e.trace, "free")
	e.frees++
}

func (e *fakeEnv) Transmit(now uint64, wqe nic.WorkQueueEntry) {
	e.trace = append(e.trace, "transmit")
	e.transmits = append(e.transmits, wqe)
}

func (e *fakeEnv) ExtraServiceCycles(core int, tag uint64) uint64 { return e.extra }

func (e *fakeEnv) OnRequestDone(now uint64, core int, p nic.Packet, svc uint64) {
	e.trace = append(e.trace, "done")
	e.done = append(e.done, p)
	e.doneSvc = append(e.doneSvc, svc)
}

func coreConfig() CoreConfig {
	return CoreConfig{
		TXSlots:     4,
		TXSlotBytes: 1024,
		TXBase:      0x100000,
		MLP:         4,
	}
}

func runCore(t *testing.T, env *fakeEnv, cfg CoreConfig) *Core {
	t.Helper()
	eng := sim.NewEngine()
	c := NewCore(0, eng, env, cfg)
	c.Start()
	eng.Drain()
	return c
}

func onePacket(size uint64) []nic.Packet {
	return []nic.Packet{{Arrival: 0, Size: size, Addr: 0x8000, Tag: 42}}
}

func TestRequestLifecycleOrdering(t *testing.T) {
	env := &fakeEnv{
		queue: onePacket(256),
		plan: workload.Plan{
			Ops:            []workload.Op{{Addr: 1}, {Addr: 2, Write: true}},
			ComputeCycles:  100,
			RespBytes:      128,
			ReadFullPacket: true,
		},
		lat: 5,
	}
	c := runCore(t, env, coreConfig())
	if c.Served() != 1 {
		t.Fatalf("served = %d", c.Served())
	}
	// Phase ordering: all RX reads, then app ops, then relinquish BEFORE
	// the slot is freed, then TX writes, then transmit, then done.
	var phases []string
	last := ""
	for _, step := range env.trace {
		if step != last {
			phases = append(phases, step)
			last = step
		}
	}
	want := []string{"rx", "app", "relinquish", "free", "tx", "transmit", "done"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func TestRelinquishCoversWholeBufferBeforeFree(t *testing.T) {
	env := &fakeEnv{queue: onePacket(1024), plan: workload.Plan{ReadFullPacket: true}, lat: 1}
	runCore(t, env, coreConfig())
	if len(env.relinqs) != 1 || env.relinqs[0] != [2]uint64{0x8000, 1024} {
		t.Fatalf("relinquish = %v", env.relinqs)
	}
	if env.frees != 1 {
		t.Fatal("slot not freed")
	}
}

func TestRXReadsCoverPayload(t *testing.T) {
	env := &fakeEnv{queue: onePacket(1024), plan: workload.Plan{ReadFullPacket: true}, lat: 1}
	runCore(t, env, coreConfig())
	if len(env.rxReads) != 16 {
		t.Fatalf("rx reads = %d, want 16", len(env.rxReads))
	}
	if env.rxReads[0] != 0x8000 || env.rxReads[15] != 0x8000+15*64 {
		t.Fatal("rx addresses")
	}
}

func TestHeaderOnlyRead(t *testing.T) {
	env := &fakeEnv{queue: onePacket(1024), plan: workload.Plan{ReadFullPacket: false}, lat: 1}
	runCore(t, env, coreConfig())
	if len(env.rxReads) != 1 {
		t.Fatalf("header-only read count = %d", len(env.rxReads))
	}
}

func TestMLPBatchesAdvanceByMax(t *testing.T) {
	// 8 RX lines with MLP 4 and 5-cycle latency: two batches -> the RX
	// phase spans 10 cycles, not 40.
	env := &fakeEnv{queue: onePacket(512), plan: workload.Plan{ReadFullPacket: true}, lat: 5}
	runCore(t, env, coreConfig())
	// Service: poll + RX 2 batches x 5 + relinquish 1 (no ops, no TX).
	if want := uint64(pollCycles + 11); env.doneSvc[0] != want {
		t.Fatalf("service = %d, want %d", env.doneSvc[0], want)
	}
}

func TestNoTransmitWithoutResponse(t *testing.T) {
	env := &fakeEnv{queue: onePacket(64), plan: workload.Plan{RespBytes: 0, ReadFullPacket: true}, lat: 1}
	runCore(t, env, coreConfig())
	if len(env.transmits) != 0 || len(env.txWrites) != 0 {
		t.Fatal("transmitted an empty response")
	}
}

func TestResponseClampedToTXSlot(t *testing.T) {
	env := &fakeEnv{
		queue: onePacket(64),
		plan:  workload.Plan{RespBytes: 1 << 20, ReadFullPacket: true},
		lat:   1,
	}
	runCore(t, env, coreConfig())
	if env.transmits[0].Size != 1024 {
		t.Fatalf("response size %d not clamped to slot", env.transmits[0].Size)
	}
}

func TestTXSlotRotation(t *testing.T) {
	var pkts []nic.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, nic.Packet{Size: 64, Addr: 0x8000, Tag: uint64(i)})
	}
	env := &fakeEnv{queue: pkts, plan: workload.Plan{RespBytes: 64, ReadFullPacket: true}, lat: 1}
	runCore(t, env, coreConfig())
	if len(env.transmits) != 6 {
		t.Fatalf("transmits = %d", len(env.transmits))
	}
	// 4 TX slots: entries 0 and 4 share a buffer, 0 and 1 do not.
	if env.transmits[0].BufAddr == env.transmits[1].BufAddr {
		t.Fatal("TX slots not rotating")
	}
	if env.transmits[0].BufAddr != env.transmits[4].BufAddr {
		t.Fatal("TX ring not circular")
	}
}

func TestSweepTXFlagPropagates(t *testing.T) {
	env := &fakeEnv{queue: onePacket(64), plan: workload.Plan{RespBytes: 64, ReadFullPacket: true}, lat: 1}
	cfg := coreConfig()
	cfg.SweepTX = true
	eng := sim.NewEngine()
	NewCore(0, eng, env, cfg).Start()
	eng.Drain()
	if !env.transmits[0].SweepBuffer {
		t.Fatal("SweepBuffer bit not set")
	}
}

func TestSpikeExtendsService(t *testing.T) {
	base := &fakeEnv{queue: onePacket(64), plan: workload.Plan{ReadFullPacket: true}, lat: 1}
	runCore(t, base, coreConfig())
	spiky := &fakeEnv{queue: onePacket(64), plan: workload.Plan{ReadFullPacket: true}, lat: 1, extra: 5000}
	runCore(t, spiky, coreConfig())
	if spiky.doneSvc[0] != base.doneSvc[0]+5000 {
		t.Fatalf("spike service %d vs base %d", spiky.doneSvc[0], base.doneSvc[0])
	}
}

func TestIdleWakeServesLateArrival(t *testing.T) {
	env := &fakeEnv{plan: workload.Plan{ReadFullPacket: true}, lat: 1}
	eng := sim.NewEngine()
	c := NewCore(0, eng, env, coreConfig())
	c.Start()
	eng.RunUntil(100)
	if !c.Idle() {
		t.Fatal("core should be idle with no traffic")
	}
	env.queue = onePacket(64)
	c.Wake(eng.Now())
	eng.Drain()
	if c.Served() != 1 {
		t.Fatal("woken core did not serve")
	}
}

// Regression test: a Wake racing with Start must not create a second
// concurrent serve chain (the bug once doubled closed-loop throughput).
func TestWakeDuringStartDoesNotDoubleServe(t *testing.T) {
	var pkts []nic.Packet
	for i := 0; i < 4; i++ {
		pkts = append(pkts, nic.Packet{Size: 64, Addr: 0x8000})
	}
	env := &fakeEnv{queue: pkts, plan: workload.Plan{ComputeCycles: 100, ReadFullPacket: true}, lat: 1}
	eng := sim.NewEngine()
	c := NewCore(0, eng, env, coreConfig())
	c.Start()
	c.Wake(0) // arrival callback before the first poll dispatched
	c.Wake(0)
	eng.Drain()
	if c.Served() != 4 {
		t.Fatalf("served = %d", c.Served())
	}
	// With a single chain, requests are strictly sequential: done count
	// equals pop successes and phases never interleave. The interleaving
	// check: each "done" is preceded by exactly one "rx" run since the
	// previous done.
	rxRuns, dones := 0, 0
	inRX := false
	for _, s := range env.trace {
		switch s {
		case "rx":
			if !inRX {
				rxRuns++
				inRX = true
			}
		default:
			inRX = false
			if s == "done" {
				dones++
			}
		}
	}
	if rxRuns != dones {
		t.Fatalf("interleaved chains: %d rx runs for %d dones", rxRuns, dones)
	}
}

func TestBusyWakeIgnored(t *testing.T) {
	env := &fakeEnv{queue: onePacket(1024), plan: workload.Plan{ComputeCycles: 1000, ReadFullPacket: true}, lat: 10}
	eng := sim.NewEngine()
	c := NewCore(0, eng, env, coreConfig())
	c.Start()
	eng.RunUntil(50) // mid-request
	c.Wake(eng.Now())
	eng.Drain()
	if c.Served() != 1 || env.popCount > 3 {
		t.Fatalf("served=%d pops=%d", c.Served(), env.popCount)
	}
}

func TestStaggeredStart(t *testing.T) {
	env := &fakeEnv{plan: workload.Plan{ReadFullPacket: true}}
	eng := sim.NewEngine()
	c := NewCore(5, eng, env, coreConfig())
	c.Start()
	eng.Drain()
	if eng.Now() != 5*37 {
		t.Fatalf("core 5 polled at %d, want staggered 185", eng.Now())
	}
}

func TestCoreConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	for name, cfg := range map[string]CoreConfig{
		"no tx slots": {TXSlots: 0, TXSlotBytes: 64},
		"no tx bytes": {TXSlots: 1, TXSlotBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewCore(0, eng, &fakeEnv{}, cfg)
		}()
	}
	// MLP defaults to 1.
	c := NewCore(0, eng, &fakeEnv{}, CoreConfig{TXSlots: 1, TXSlotBytes: 64})
	if c.cfg.MLP != 1 {
		t.Fatal("MLP default")
	}
}

func TestXMemCoreAccessLoop(t *testing.T) {
	env := &fakeEnv{lat: 10}
	eng := sim.NewEngine()
	stream := workload.NewXMem()
	stream.Layout(addr.NewSpace(1, 1024, 1024), 1)
	x := NewXMemCore(1, eng, env, stream)
	if x.ID() != 1 || x.Stream() != stream {
		t.Fatal("accessors")
	}
	x.Start()
	eng.RunUntil(1000)
	if x.Accesses() == 0 {
		t.Fatal("no accesses")
	}
	// Batches of XMemMLP issue at one instant, spaced by latency+gap.
	perBatch := uint64(XMemMLP)
	if x.Accesses()%perBatch != 0 {
		t.Fatalf("accesses %d not in whole batches", x.Accesses())
	}
	x.Stop()
	n := x.Accesses()
	eng.Drain()
	if x.Accesses() > n+perBatch {
		t.Fatal("Stop did not halt the loop")
	}
}
