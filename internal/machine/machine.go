package machine

import (
	"fmt"
	"math/rand"

	"sweeper/internal/addr"
	"sweeper/internal/cache"
	"sweeper/internal/core"
	"sweeper/internal/cpu"
	"sweeper/internal/mem"
	"sweeper/internal/nic"
	"sweeper/internal/obs"
	"sweeper/internal/sim"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// Machine is one fully assembled simulated server: a thin composition root
// over the event engine, the memory datapath, the NIC, the Sweeper, the
// workload driver and the cores. A Machine runs exactly once: build a fresh
// one (or Reset a pooled one) per configuration probe so caches start cold
// and warmup is well defined.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	dp    *datapath
	nicD  *nic.NIC
	sweep *core.Sweeper

	// drv is the networked application, built through the workload
	// registry; drvName/drvParams record what it was built from so Reset
	// can reuse it when the parameterization is unchanged.
	drv       workload.Driver
	drvName   string
	drvParams workload.Params

	cores []*cpu.Core
	xmem  []*cpu.XMemCore

	// agen is the open-loop arrival process, built through the nic
	// arrival registry (Poisson unless Config.Arrival names another
	// registered process); agenProc records its registry name so Reset can
	// reuse the generator when the process is unchanged. cgen is the
	// closed-loop alternative.
	agen     nic.ArrivalGen
	agenProc string
	cgen     *nic.ClosedLoopGen

	rng *rand.Rand

	// Request-side accounting (window deltas are taken at snap).
	reqLat   *stats.Histogram
	svcSum   uint64
	svcCount uint64

	measuring bool
	ran       bool
	// winSnap holds the cumulative-counter snapshot taken at BeginWindow,
	// consumed by EndWindow's delta collection.
	winSnap windowSnap

	// amatSum/amatCount accumulate CPU-side hierarchy access latency while
	// measuring: Results.AMATCycles, the AMAT the paper's model centres on.
	amatSum, amatCount uint64

	// Observability (internal/obs): the lazily built metric registry, the
	// optional periodic sampler, and the windows of the last Run (recorded
	// for manifests). All zero until EnableSampling or Metrics is called.
	metrics                 *obs.Registry
	sampler                 *obs.Sampler
	obsOn                   bool
	obsEvery                uint64
	lastWarmup, lastMeasure uint64
}

// New assembles a machine from cfg: the machine owns its event engine and
// drives its own traffic generator.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.NetCores + cfg.XMemCores
	m := &Machine{
		cfg:    cfg,
		eng:    sim.NewEngine(),
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		reqLat: stats.NewHistogram(64, 8192),
	}

	rxBytes := uint64(cfg.RingSlots) * cfg.PacketBytes
	txBytes := uint64(cfg.TXSlots) * cfg.respSlotBytes()
	space := addr.NewSpace(total, rxBytes, txBytes)

	m.dp = newDatapath(space, cfg.Mem, cache.DefaultConfig(total))
	m.sweep = core.New(m.dp.hier, cfg.Sweeper)
	m.nicD = nic.New(nic.Config{
		Mode:      cfg.NICMode,
		RingSlots: cfg.RingSlots,
		SlotBytes: cfg.PacketBytes,
	}, space, m.dp.hier)

	if err := m.configure(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// configure performs every configuration-dependent assembly step over
// already-allocated (or freshly Reset) subsystems: datapath way policy, NIC
// hooks, workload layout (in address-space allocation order), cores, tenant
// streams and the traffic generator. New and Reset share it verbatim, which
// is what guarantees a pooled machine is configured exactly like a fresh one.
func (m *Machine) configure(cfg Config) error {
	// Reconfiguration may replace cores and generators, so any previously
	// built registry holds stale closures; drop it for lazy rebuild.
	m.metrics = nil

	m.dp.configure(cfg)

	m.nicD.SetTXSweeper(m.sweep)
	if cfg.Sweeper.DebugUseAfterRelinquish {
		m.nicD.SetOverwriteListener(m.sweep)
	}
	m.nicD.SetEnqueueCallback(func(now uint64, c int) {
		if c < cfg.NetCores {
			m.cores[c].Wake(now)
		}
	})

	// Build the workload driver through the registry, reusing the live one
	// exactly when its name and parameterization are unchanged (its layout
	// against the freshly Reset space reproduces a fresh driver's state).
	p := cfg.params()
	if m.drv == nil || m.drvName != cfg.Workload || m.drvParams != p {
		drv, err := workload.NewDriver(cfg.Workload, p)
		if err != nil {
			return err
		}
		m.drv, m.drvName, m.drvParams = drv, cfg.Workload, p
	}
	m.drv.Layout(m.dp.space)
	if w, ok := m.drv.(workload.LLCWarmer); ok && w.WarmLLC() {
		m.dp.warmLLC(cfg)
	}

	if len(m.cores) != cfg.NetCores {
		m.cores = make([]*cpu.Core, cfg.NetCores)
	}
	for i := range m.cores {
		ccfg := cpu.CoreConfig{
			TXSlots:     cfg.TXSlots,
			TXSlotBytes: cfg.respSlotBytes(),
			TXBase:      m.dp.space.TXBase(i),
			SweepTX:     cfg.Sweeper.TXSweep,
			MLP:         cfg.MLPWidth,
		}
		if m.cores[i] != nil {
			m.cores[i].Reset(ccfg)
		} else {
			m.cores[i] = cpu.NewCore(i, m.eng, m, ccfg)
		}
	}
	if len(m.xmem) != cfg.XMemCores {
		m.xmem = make([]*cpu.XMemCore, cfg.XMemCores)
	}
	for i := range m.xmem {
		id := cfg.NetCores + i
		seed := uint64(cfg.Seed) + uint64(id)*977
		if m.xmem[i] != nil {
			m.xmem[i].Stream().Layout(m.dp.space, seed)
			m.xmem[i].Reset()
		} else {
			stream := workload.NewXMem()
			stream.Layout(m.dp.space, seed)
			m.xmem[i] = cpu.NewXMemCore(id, m.eng, m, stream)
		}
	}

	if cfg.ClosedLoopDepth > 0 {
		m.agen, m.agenProc = nil, ""
		if m.cgen != nil {
			m.cgen.Reset(cfg.ClosedLoopDepth, cfg.Seed)
		} else {
			m.cgen = nic.NewClosedLoopGen(m.nicD, cfg.PacketBytes, cfg.ClosedLoopDepth, cfg.Seed)
		}
		m.cgen.SetTargetCores(cfg.NetCores)
		if s, ok := m.drv.(workload.RequestSizer); ok {
			m.cgen.SetSizer(s.RequestBytes)
		}
	} else {
		m.cgen = nil
		spec := m.arrivalSpec(cfg)
		proc := cfg.Arrival.Process
		if m.agen != nil && m.agenProc == proc {
			if err := m.agen.Reset(spec); err != nil {
				return err
			}
		} else {
			gen, err := nic.NewArrival(m.eng, spec, m.injectArrival)
			if err != nil {
				return err
			}
			m.agen, m.agenProc = gen, proc
		}
		if s, ok := m.drv.(workload.RequestSizer); ok {
			m.agen.SetSizer(s.RequestBytes)
		}
	}
	return nil
}

// arrivalSpec derives the arrival-process parameterization from a machine
// configuration.
func (m *Machine) arrivalSpec(cfg Config) nic.ArrivalSpec {
	return nic.ArrivalSpec{
		Cores:   cfg.NetCores,
		Size:    cfg.PacketBytes,
		MeanGap: stats.CyclesPerSecond(cfg.OfferedMrps*1e6, FreqHz),
		Seed:    cfg.Seed,
		Config:  cfg.Arrival,
	}
}

// injectArrival is the machine's InjectFunc: arrivals land in its own NIC.
func (m *Machine) injectArrival(now uint64, core int, size uint64, tag uint64) {
	m.nicD.Inject(now, core, size, tag)
}

// geometry captures every allocation-shaping parameter of a Config: the
// parts of a machine that Reset reuses in place rather than reconfigures.
// Two configs with equal geometry can share one pooled machine.
type geometry struct {
	netCores, xmemCores int
	ringSlots           int
	packetBytes         uint64
	txSlots             int
	respSlotBytes       uint64
	mem                 mem.Config
}

func geometryOf(cfg Config) geometry {
	return geometry{
		netCores:      cfg.NetCores,
		xmemCores:     cfg.XMemCores,
		ringSlots:     cfg.RingSlots,
		packetBytes:   cfg.PacketBytes,
		txSlots:       cfg.TXSlots,
		respSlotBytes: cfg.respSlotBytes(),
		mem:           cfg.Mem,
	}
}

// Reset returns a used machine to the state New(cfg) would produce, reusing
// every geometry-sized allocation: the engine's event slab, the cache
// metadata (5.6MB for Table I), DRAM channel state, ring storage and the
// workload's per-key arrays. The new configuration must have the same
// geometry as the one the machine was built with (same core counts, which
// size the caches, ring shapes and DRAM sizing); non-geometric knobs —
// seeds, rates, modes, DDIO ways, the LLC partition, Sweeper settings — may
// differ freely. Reset-then-Run is bit-identical to fresh-build-then-Run.
func (m *Machine) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if geometryOf(cfg) != geometryOf(m.cfg) {
		return fmt.Errorf("machine: Reset geometry mismatch (build a fresh machine): have %+v, want %+v",
			geometryOf(m.cfg), geometryOf(cfg))
	}
	m.cfg = cfg
	m.eng.Reset()
	m.rng.Seed(cfg.Seed ^ 0x5eed)
	m.reqLat.Reset()
	m.dp.reset()
	m.sweep.Reset(cfg.Sweeper)
	m.nicD.Reset(cfg.NICMode)

	m.svcSum, m.svcCount = 0, 0
	m.measuring, m.ran = false, false
	m.winSnap = windowSnap{}
	m.amatSum, m.amatCount = 0, 0
	m.sampler, m.obsOn, m.obsEvery = nil, false, 0
	m.lastWarmup, m.lastMeasure = 0, 0

	return m.configure(cfg)
}

// MustNew is New, panicking on configuration errors; a convenience for
// experiment tables whose configs are static.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Accessors for tests, examples and the experiment harness.

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Engine returns the event engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Hierarchy returns the cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.dp.hier }

// DRAM returns the memory model.
func (m *Machine) DRAM() *mem.DDR4 { return m.dp.dram }

// NIC returns the network interface.
func (m *Machine) NIC() *nic.NIC { return m.nicD }

// Sweeper returns the Sweeper instance.
func (m *Machine) Sweeper() *core.Sweeper { return m.sweep }

// Space returns the address map.
func (m *Machine) Space() *addr.Space { return m.dp.space }

// Workload returns the networked application driver. Callers needing a
// concrete type (tests, workload-specific reports) type-assert the result.
func (m *Machine) Workload() workload.Driver { return m.drv }

// Env implementation (cpu.Env).

// PopPacket implements cpu.Env.
func (m *Machine) PopPacket(c int) (nic.Packet, bool) {
	return m.nicD.Ring(c).Pop()
}

// OnPop implements cpu.Env: closed-loop generators refill immediately.
func (m *Machine) OnPop(now uint64, c int) {
	if m.cgen != nil {
		m.cgen.Refill(now, c)
	}
}

// PlanRequest implements cpu.Env.
func (m *Machine) PlanRequest(tag uint64, pktBytes uint64, plan *workload.Plan) {
	m.drv.PlanRequest(tag, pktBytes, plan)
}

// noteAccess accumulates a CPU-side hierarchy access latency into the AMAT
// accumulator while measuring, and passes the completion cycle through.
func (m *Machine) noteAccess(now, done uint64) uint64 {
	if m.measuring {
		m.amatSum += done - now
		m.amatCount++
	}
	return done
}

// RXRead implements cpu.Env. Under Ideal-DDIO network buffers live in the
// infinite side cache at LLC latency; otherwise the read goes through the
// real hierarchy (with the optional use-after-relinquish sanitizer).
func (m *Machine) RXRead(now uint64, c int, a uint64) uint64 {
	if m.cfg.NICMode == nic.ModeIdeal {
		return m.noteAccess(now, now+tableI.NoCLat+tableI.LLCLat)
	}
	if m.cfg.Sweeper.DebugUseAfterRelinquish {
		m.sweep.CheckRead(a)
	}
	return m.noteAccess(now, m.dp.hier.CPURead(now, c, a))
}

// AppRead implements cpu.Env.
func (m *Machine) AppRead(now uint64, c int, a uint64) uint64 {
	return m.noteAccess(now, m.dp.hier.CPURead(now, c, a))
}

// AppWrite implements cpu.Env.
func (m *Machine) AppWrite(now uint64, c int, a uint64) uint64 {
	return m.noteAccess(now, m.dp.hier.CPUWrite(now, c, a))
}

// AppWriteFull implements cpu.Env.
func (m *Machine) AppWriteFull(now uint64, c int, a uint64) uint64 {
	return m.noteAccess(now, m.dp.hier.CPUWriteFull(now, c, a))
}

// TXWrite implements cpu.Env: Ideal-DDIO keeps TX buffers in the side cache
// too ("zero memory traffic due to network data movements", §III).
// Response construction overwrites whole lines, so the real-cache path is a
// streaming full-line store.
func (m *Machine) TXWrite(now uint64, c int, a uint64) uint64 {
	if m.cfg.NICMode == nic.ModeIdeal {
		return m.noteAccess(now, now+tableI.L1Lat)
	}
	return m.noteAccess(now, m.dp.hier.CPUWriteFull(now, c, a))
}

// Relinquish implements cpu.Env. Under Ideal-DDIO there is nothing to
// sweep: the buffers never entered the real hierarchy.
func (m *Machine) Relinquish(now uint64, c int, buf, size uint64) uint64 {
	if m.cfg.NICMode == nic.ModeIdeal {
		return now
	}
	return m.sweep.Relinquish(now, c, buf, size)
}

// FreeRXSlot implements cpu.Env.
func (m *Machine) FreeRXSlot(c int) { m.nicD.Ring(c).Free() }

// Transmit implements cpu.Env.
func (m *Machine) Transmit(now uint64, wqe nic.WorkQueueEntry) {
	m.nicD.Transmit(now, wqe)
}

// ExtraServiceCycles implements cpu.Env: the §VI-F spike injector.
func (m *Machine) ExtraServiceCycles(c int, tag uint64) uint64 {
	if m.cfg.SpikeProb <= 0 || m.rng.Float64() >= m.cfg.SpikeProb {
		return 0
	}
	return spikeMinCycles + uint64(m.rng.Int63n(spikeMaxCycles-spikeMinCycles))
}

// OnRequestDone implements cpu.Env.
func (m *Machine) OnRequestDone(now uint64, c int, p nic.Packet, serviceCycles uint64) {
	if m.measuring {
		m.reqLat.Record(now - p.Arrival)
		m.svcSum += serviceCycles
		m.svcCount++
	}
}
