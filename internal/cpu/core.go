// Package cpu models the server's cores. A networked core runs the
// pseudocode loop of the paper's Figure 3: poll the RX ring, read the
// packet, execute the application's access plan, relinquish the consumed
// buffer (when Sweeper is on), build the response in a TX buffer and post a
// Work Queue entry. An X-Mem core runs the §VI-E memory-intensive tenant:
// an endless stream of dependent random accesses.
//
// Cores are in-order request processors: a request's service time is its
// fixed compute plus the sum of its memory access latencies, which is the
// first-order model behind the paper's AMAT-driven throughput results.
package cpu

import (
	"fmt"

	"sweeper/internal/addr"
	"sweeper/internal/nic"
	"sweeper/internal/obs"
	"sweeper/internal/sim"
	"sweeper/internal/workload"
)

// Env is everything a core needs from the rest of the machine. The machine
// package implements it; tests use fakes.
type Env interface {
	// PopPacket takes the oldest unconsumed packet off the core's ring.
	PopPacket(core int) (nic.Packet, bool)
	// OnPop lets closed-loop generators refill the ring.
	OnPop(now uint64, core int)
	// PlanRequest asks the workload for the packet's access plan.
	PlanRequest(tag uint64, pktBytes uint64, plan *workload.Plan)
	// RXRead loads one RX-buffer line; returns the completion cycle.
	RXRead(now uint64, core int, a uint64) uint64
	// AppRead and AppWrite access application data; AppWriteFull is a
	// streaming full-line store (no read-for-ownership).
	AppRead(now uint64, core int, a uint64) uint64
	AppWrite(now uint64, core int, a uint64) uint64
	AppWriteFull(now uint64, core int, a uint64) uint64
	// TXWrite stores one response line into the TX buffer.
	TXWrite(now uint64, core int, a uint64) uint64
	// Relinquish declares the RX buffer instance consumed (§V-A); a
	// no-op returning now when Sweeper is disabled.
	Relinquish(now uint64, core int, buf, size uint64) uint64
	// FreeRXSlot recycles the ring slot for the NIC.
	FreeRXSlot(core int)
	// Transmit posts a Work Queue entry.
	Transmit(now uint64, wqe nic.WorkQueueEntry)
	// ExtraServiceCycles returns additional service delay for this
	// request (the §VI-F processing spikes); usually zero.
	ExtraServiceCycles(core int, tag uint64) uint64
	// OnRequestDone reports a completed request for accounting.
	OnRequestDone(now uint64, core int, p nic.Packet, serviceCycles uint64)
}

// pollCycles is the fixed dispatch overhead per request (ring poll,
// doorbell, descriptor handling).
const pollCycles = 50

// CoreConfig tunes per-core behaviour.
type CoreConfig struct {
	// TXSlots and TXSlotBytes shape the core's transmit ring. Response
	// buffers recycle quickly, so a modest in-flight window suffices.
	TXSlots     int
	TXSlotBytes uint64
	// TXBase is the address of TX slot 0.
	TXBase uint64
	// SweepTX sets the Work Queue SweepBuffer bit on posted entries
	// (§V-D NIC-driven sweeping).
	SweepTX bool
	// MLP is the memory-level parallelism width: how many independent
	// accesses the core keeps in flight (Table I's cores are 5-wide OoO
	// with a 352-entry ROB; MSHR-limited overlap is what matters here).
	// Independent accesses within a request phase are issued in batches
	// of MLP; the phase advances when the slowest completes.
	MLP int
}

// Core is one networked application core.
//
// A request is served as a sequence of single-access events: each memory
// access is issued at the simulated time its predecessor completed. Keeping
// per-access event granularity matters for fidelity — it guarantees the
// DRAM model observes the machine's accesses in global time order, so bank
// and bus queuing reflect true concurrency instead of artifacts of event
// batching.
type Core struct {
	id  int
	eng *sim.Engine
	env Env
	cfg CoreConfig

	idle bool

	plan    workload.Plan
	nextTX  int
	rxLines []uint64
	txLines []uint64

	// In-flight request state.
	cur     nic.Packet
	start   uint64
	phase   phase
	idx     int
	txAddr  uint64
	txBytes uint64

	served uint64
}

// phase enumerates the request-service pipeline of Figure 3.
type phase uint8

const (
	phasePoll phase = iota
	phaseRXRead
	phaseAppOps
	phaseCompute
	phaseRelinquish
	phaseTXWrite
	phaseFinish
)

// Event args for the sim.Sink interface: cores schedule themselves through
// the engine's allocation-free path instead of per-event closures.
const (
	evTryServe = iota
	evStep
)

// OnEvent implements sim.Sink.
func (c *Core) OnEvent(now sim.Cycle, arg uint64) {
	if arg == evStep {
		c.step(now)
		return
	}
	c.tryServe(now)
}

// NewCore creates a core; call Start once the machine is assembled.
func NewCore(id int, eng *sim.Engine, env Env, cfg CoreConfig) *Core {
	if cfg.TXSlots <= 0 || cfg.TXSlotBytes == 0 {
		panic("cpu: core needs a TX ring")
	}
	if cfg.MLP <= 0 {
		cfg.MLP = 1
	}
	return &Core{id: id, eng: eng, env: env, cfg: cfg, idle: true}
}

// Reset returns the core to its just-constructed state under a new
// configuration, reusing the plan and line-address scratch slices. The
// retained capacity never changes behaviour: every slice is truncated before
// use and the access plan is rebuilt per request.
func (c *Core) Reset(cfg CoreConfig) {
	if cfg.TXSlots <= 0 || cfg.TXSlotBytes == 0 {
		panic("cpu: core needs a TX ring")
	}
	if cfg.MLP <= 0 {
		cfg.MLP = 1
	}
	c.cfg = cfg
	c.idle = true
	c.nextTX = 0
	c.rxLines = c.rxLines[:0]
	c.txLines = c.txLines[:0]
	c.cur = nic.Packet{}
	c.start = 0
	c.phase = phasePoll
	c.idx = 0
	c.txAddr, c.txBytes = 0, 0
	c.served = 0
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Served returns the number of requests this core completed.
func (c *Core) Served() uint64 { return c.served }

// Idle reports whether the core is waiting for packets.
func (c *Core) Idle() bool { return c.idle }

// RegisterMetrics exposes the core's served-request counter to the
// observability registry.
func (c *Core) RegisterMetrics(r *obs.Registry) {
	r.Counter(fmt.Sprintf("cpu.core%02d.served", c.id), func() uint64 { return c.served })
}

// Start begins polling shortly after the current cycle, staggered by core
// id so identical cores do not run in lockstep (lockstepped cores hammer
// the memory controller with synchronized bursts that no real system
// produces). It claims the serve chain immediately (idle = false) so that a
// Wake arriving before the first poll dispatches cannot schedule a second,
// concurrent chain for the core.
func (c *Core) Start() {
	c.idle = false
	c.eng.ScheduleAfter(uint64(c.id)*37, c, evTryServe)
}

// Wake nudges an idle core when a packet arrives. Busy cores ignore it:
// they re-poll when the current request completes.
func (c *Core) Wake(now uint64) {
	if !c.idle {
		return
	}
	c.idle = false
	c.eng.Schedule(now, c, evTryServe)
}

func (c *Core) tryServe(now uint64) {
	p, ok := c.env.PopPacket(c.id)
	if !ok {
		c.idle = true
		return
	}
	c.idle = false
	c.env.OnPop(now, c.id)
	c.beginRequest(now, p)
}

// beginRequest sets up the service pipeline for p and schedules its first
// step after the poll/dispatch overhead.
func (c *Core) beginRequest(now uint64, p nic.Packet) {
	c.cur = p
	c.start = now
	c.env.PlanRequest(p.Tag, p.Size, &c.plan)

	// The request is read from the RX buffer: the whole payload when the
	// application consumes it, otherwise just the header line.
	rxBytes := p.Size
	if !c.plan.ReadFullPacket {
		rxBytes = addr.LineBytes
	}
	c.rxLines = addr.LineAddrs(c.rxLines[:0], p.Addr, rxBytes)

	c.txBytes = c.plan.RespBytes
	if c.txBytes > c.cfg.TXSlotBytes {
		c.txBytes = c.cfg.TXSlotBytes
	}
	if c.txBytes > 0 {
		c.txAddr = c.txSlotAddr(c.nextTX)
		c.nextTX = (c.nextTX + 1) % c.cfg.TXSlots
		c.txLines = addr.LineAddrs(c.txLines[:0], c.txAddr, c.txBytes)
	} else {
		c.txLines = c.txLines[:0]
	}

	c.phase = phaseRXRead
	c.idx = 0
	c.eng.Schedule(now+pollCycles, c, evStep)
}

// step advances the in-flight request by exactly one access (or one
// bounded transition) and schedules the continuation at its completion.
func (c *Core) step(now uint64) {
	switch c.phase {
	case phaseRXRead:
		if c.idx < len(c.rxLines) {
			// Buffer lines are independent loads: overlap them up
			// to the MLP width.
			done := now
			for n := 0; n < c.cfg.MLP && c.idx < len(c.rxLines); n++ {
				if d := c.env.RXRead(now, c.id, c.rxLines[c.idx]); d > done {
					done = d
				}
				c.idx++
			}
			c.eng.Schedule(done, c, evStep)
			return
		}
		c.phase = phaseAppOps
		c.idx = 0
		c.step(now)

	case phaseAppOps:
		if c.idx < len(c.plan.Ops) {
			done := now
			for n := 0; n < c.cfg.MLP && c.idx < len(c.plan.Ops); n++ {
				op := c.plan.Ops[c.idx]
				c.idx++
				var d uint64
				switch {
				case op.Write && op.FullLine:
					d = c.env.AppWriteFull(now, c.id, op.Addr)
				case op.Write:
					d = c.env.AppWrite(now, c.id, op.Addr)
				default:
					d = c.env.AppRead(now, c.id, op.Addr)
				}
				if d > done {
					done = d
				}
			}
			c.eng.Schedule(done, c, evStep)
			return
		}
		c.phase = phaseCompute
		c.step(now)

	case phaseCompute:
		delay := c.plan.ComputeCycles + c.env.ExtraServiceCycles(c.id, c.cur.Tag)
		c.phase = phaseRelinquish
		c.eng.Schedule(now+delay, c, evStep)

	case phaseRelinquish:
		// The buffer instance is conclusively consumed: relinquish
		// before recycling the slot (§V-A ordering requirement).
		done := c.env.Relinquish(now, c.id, c.cur.Addr, c.cur.Size)
		c.env.FreeRXSlot(c.id)
		c.phase = phaseTXWrite
		c.idx = 0
		c.eng.Schedule(done, c, evStep)

	case phaseTXWrite:
		if c.idx < len(c.txLines) {
			done := now
			for n := 0; n < c.cfg.MLP && c.idx < len(c.txLines); n++ {
				if d := c.env.TXWrite(now, c.id, c.txLines[c.idx]); d > done {
					done = d
				}
				c.idx++
			}
			c.eng.Schedule(done, c, evStep)
			return
		}
		c.phase = phaseFinish
		c.step(now)

	case phaseFinish:
		if c.txBytes > 0 {
			c.env.Transmit(now, nic.WorkQueueEntry{
				Owner:       c.id,
				BufAddr:     c.txAddr,
				Size:        c.txBytes,
				SweepBuffer: c.cfg.SweepTX,
			})
		}
		c.served++
		c.env.OnRequestDone(now, c.id, c.cur, now-c.start)
		c.phase = phasePoll
		c.tryServe(now)
	}
}

func (c *Core) txSlotAddr(slot int) uint64 {
	return c.cfg.TXBase + uint64(slot)*c.cfg.TXSlotBytes
}

// XMemCore runs the §VI-E memory-intensive tenant: back-to-back random
// loads over a private array, with a small fixed compute gap. Independent
// accesses are overlapped up to XMemMLP wide.
type XMemCore struct {
	id     int
	eng    *sim.Engine
	env    Env
	stream *workload.XMem

	accesses uint64
}

// XMemMLP is the tenant's access overlap; X-Mem issues streams of
// independent accesses, not a dependent pointer chase.
const XMemMLP = 4

// NewXMemCore creates an X-Mem tenant core.
func NewXMemCore(id int, eng *sim.Engine, env Env, stream *workload.XMem) *XMemCore {
	return &XMemCore{id: id, eng: eng, env: env, stream: stream}
}

// Reset returns the tenant core to its just-constructed state. The caller
// resets the underlying stream separately (it owns the seed).
func (x *XMemCore) Reset() { x.accesses = 0 }

// ID returns the core's index.
func (x *XMemCore) ID() int { return x.id }

// Accesses returns the cumulative access count.
func (x *XMemCore) Accesses() uint64 { return x.accesses }

// Stream returns the underlying access stream.
func (x *XMemCore) Stream() *workload.XMem { return x.stream }

// RegisterMetrics exposes the tenant core's access counter to the
// observability registry.
func (x *XMemCore) RegisterMetrics(r *obs.Registry) {
	r.Counter(fmt.Sprintf("cpu.xmem%02d.accesses", x.id), func() uint64 { return x.accesses })
}

// OnEvent implements sim.Sink.
func (x *XMemCore) OnEvent(now sim.Cycle, _ uint64) { x.step(now) }

// Start begins the access loop.
func (x *XMemCore) Start() {
	x.eng.ScheduleAfter(0, x, 0)
}

func (x *XMemCore) step(now uint64) {
	// One batch per event keeps the DRAM model observing accesses in
	// global time order (see Core).
	done := now
	for n := 0; n < XMemMLP; n++ {
		if d := x.env.AppRead(now, x.id, x.stream.Next()); d > done {
			done = d
		}
		x.accesses++
	}
	x.eng.Schedule(done+x.stream.ComputeCycles(), x, 0)
}
