package cache

import (
	"fmt"

	"sweeper/internal/obs"
)

// Requestor identifies who issued a DRAM demand read.
type Requestor uint8

const (
	// SrcCPU marks demand reads from application cores.
	SrcCPU Requestor = iota
	// SrcNIC marks demand reads from the NIC (TX buffer fetches).
	SrcNIC
)

// MemSink is the memory side of the hierarchy. The machine implements it on
// top of the DDR4 model, classifying each transaction into the paper's
// breakdown categories by requestor and address class.
type MemSink interface {
	// DemandRead fetches a line from DRAM starting at cycle now and
	// returns the completion cycle.
	DemandRead(now uint64, a uint64, src Requestor) (done uint64)
	// WritebackEvict writes a dirty evicted line back to DRAM
	// (fire-and-forget for the evictor, but it consumes DRAM bandwidth).
	WritebackEvict(now uint64, a uint64)
	// DMAWrite is a NIC packet write straight to DRAM (conventional DMA
	// injection).
	DMAWrite(now uint64, a uint64)
}

// Config sizes the hierarchy. Defaults follow the paper's Table I.
type Config struct {
	NCores int

	L1Bytes uint64
	L1Ways  int
	L1Lat   uint64

	L2Bytes uint64
	L2Ways  int
	L2Lat   uint64

	LLCBytes uint64
	LLCWays  int
	LLCLat   uint64

	// NoCLat is the one-way crossbar latency between a core and the
	// LLC/memory-controller side of the chip.
	NoCLat uint64
}

// DefaultConfig returns the Table I hierarchy: 48KB/12w L1d (4 cyc),
// 1.25MB/20w L2 (14 cyc), shared 36MB/12w non-inclusive LLC (35 cyc),
// 8-cycle crossbar.
func DefaultConfig(nCores int) Config {
	return Config{
		NCores:   nCores,
		L1Bytes:  48 * 1024,
		L1Ways:   12,
		L1Lat:    4,
		L2Bytes:  1280 * 1024,
		L2Ways:   20,
		L2Lat:    14,
		LLCBytes: 36 * 1024 * 1024,
		LLCWays:  12,
		LLCLat:   35,
		NoCLat:   8,
	}
}

// Hierarchy is the full simulated cache system: per-core private L1d and L2
// plus the shared LLC. The LLC is non-inclusive and operates as a victim
// cache for L2 evictions (Table I); NIC DDIO writes allocate directly into
// the LLC's DDIO ways.
type Hierarchy struct {
	cfg  Config
	l1   []*SetAssoc
	l2   []*SetAssoc
	llc  *SetAssoc
	sink MemSink

	// nicMask restricts NIC write-allocations (the DDIO ways); cpuMask
	// restricts CPU-side LLC fills per core (all ways by default, a
	// partition in the §VI-E collocation scenarios).
	nicMask WayMask
	cpuMask []WayMask

	sweeps     uint64
	sweptDirty uint64

	flow FlowStats
}

// FlowStats counts line movements through the shared cache, for diagnosing
// occupancy dynamics in tests and experiments.
type FlowStats struct {
	// LLCInserts counts insertion attempts; LLCMerges the subset that
	// updated an already-present line in place; LLCEvictDirty/Clean the
	// displaced victims by dirtiness.
	LLCInserts    uint64
	LLCMerges     uint64
	LLCEvictDirty uint64
	LLCEvictClean uint64
	// L2VictimDirty/Clean classify L2 victim-cache spills into the LLC.
	L2VictimDirty uint64
	L2VictimClean uint64
}

// NewHierarchy builds the hierarchy over the given memory sink.
func NewHierarchy(cfg Config, sink MemSink) *Hierarchy {
	if cfg.NCores <= 0 {
		panic("cache: NCores must be positive")
	}
	if sink == nil {
		panic("cache: nil MemSink")
	}
	h := &Hierarchy{
		cfg:     cfg,
		l1:      make([]*SetAssoc, cfg.NCores),
		l2:      make([]*SetAssoc, cfg.NCores),
		llc:     NewSetAssoc("LLC", cfg.LLCBytes, cfg.LLCWays),
		sink:    sink,
		nicMask: MaskAll(cfg.LLCWays),
		cpuMask: make([]WayMask, cfg.NCores),
	}
	for i := 0; i < cfg.NCores; i++ {
		h.l1[i] = NewSetAssoc(fmt.Sprintf("L1d[%d]", i), cfg.L1Bytes, cfg.L1Ways)
		h.l2[i] = NewSetAssoc(fmt.Sprintf("L2[%d]", i), cfg.L2Bytes, cfg.L2Ways)
		h.cpuMask[i] = MaskAll(cfg.LLCWays)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Reset returns the hierarchy to its just-constructed state: every cache
// empty, way masks back to unrestricted, and all counters zeroed. Machine
// pooling uses this to reuse the caches' 5.6MB of metadata (Table I, 24
// cores) across probes instead of reallocating it.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
		h.cpuMask[i] = MaskAll(h.cfg.LLCWays)
	}
	h.llc.Reset()
	h.nicMask = MaskAll(h.cfg.LLCWays)
	h.sweeps, h.sweptDirty = 0, 0
	h.flow = FlowStats{}
}

// LLC exposes the shared cache for occupancy checks and statistics.
func (h *Hierarchy) LLC() *SetAssoc { return h.llc }

// L1 and L2 expose a core's private caches for tests and statistics.
func (h *Hierarchy) L1(core int) *SetAssoc { return h.l1[core] }
func (h *Hierarchy) L2(core int) *SetAssoc { return h.l2[core] }

// SetNICWays restricts NIC write-allocation to the first n LLC ways — the
// DDIO way configuration of §II-A.
func (h *Hierarchy) SetNICWays(n int) {
	if n <= 0 || n > h.cfg.LLCWays {
		panic(fmt.Sprintf("cache: DDIO ways %d out of range [1,%d]", n, h.cfg.LLCWays))
	}
	h.nicMask = MaskAll(n)
}

// SetNICWayMask sets an arbitrary NIC allocation mask.
func (h *Hierarchy) SetNICWayMask(m WayMask) {
	if m == 0 {
		panic("cache: empty NIC way mask")
	}
	if obs.ProbesEnabled && m>>h.cfg.LLCWays != 0 {
		obs.Failf("cache: NIC way mask %#x names ways beyond the %d-way LLC",
			uint32(m), h.cfg.LLCWays)
	}
	h.nicMask = m
}

// SetCPUWayMask restricts CPU-side LLC fills for one core, implementing the
// disjoint tenant partitions of the collocation study.
func (h *Hierarchy) SetCPUWayMask(core int, m WayMask) {
	if m == 0 {
		panic("cache: empty CPU way mask")
	}
	if obs.ProbesEnabled && m>>h.cfg.LLCWays != 0 {
		obs.Failf("cache: core %d way mask %#x names ways beyond the %d-way LLC",
			core, uint32(m), h.cfg.LLCWays)
	}
	h.cpuMask[core] = m
}

// NICWayMask returns the current DDIO allocation mask.
func (h *Hierarchy) NICWayMask() WayMask { return h.nicMask }

// RegisterMetrics exposes shared-cache activity and the live DDIO way
// pressure to the observability registry.
func (h *Hierarchy) RegisterMetrics(r *obs.Registry) {
	r.Counter("llc.hits", h.llc.Hits)
	r.Counter("llc.misses", h.llc.Misses)
	r.Counter("llc.sweep_ops", func() uint64 { return h.sweeps })
	r.Counter("llc.sweep_dropped_dirty", func() uint64 { return h.sweptDirty })
	r.Gauge("llc.ddio_ways", func(uint64) float64 { return float64(h.nicMask.Count()) })
}

// Flow returns a snapshot of cumulative line-movement counters.
func (h *Hierarchy) Flow() FlowStats { return h.flow }

// Sweeps returns how many sweep operations were executed and how many dirty
// lines they dropped (each dropped line is one 64B writeback avoided).
func (h *Hierarchy) Sweeps() (ops, droppedDirty uint64) {
	return h.sweeps, h.sweptDirty
}

// llcInsert places a line into the LLC under mask, writing back any dirty
// victim it displaces.
func (h *Hierarchy) llcInsert(now uint64, a uint64, dirty bool, mask WayMask) {
	v := h.llc.Insert(a, dirty, mask)
	h.flow.LLCInserts++
	switch {
	case v.Merged:
		h.flow.LLCMerges++
	case v.Valid && v.Dirty:
		h.flow.LLCEvictDirty++
		h.sink.WritebackEvict(now, v.Addr)
	case v.Valid:
		h.flow.LLCEvictClean++
	}
}

// l2Insert places a line into a core's L2, spilling the victim into the LLC
// (the victim-cache fill path).
func (h *Hierarchy) l2Insert(now uint64, core int, a uint64, dirty bool) {
	v := h.l2[core].Insert(a, dirty, MaskAll(h.cfg.L2Ways))
	if !v.Valid {
		return
	}
	if v.Dirty {
		h.flow.L2VictimDirty++
	} else {
		h.flow.L2VictimClean++
	}
	// Dirty victims must reach the LLC; clean victims are also cached
	// (victim-cache behaviour) so later reads can hit on-chip.
	h.llcInsert(now, v.Addr, v.Dirty, h.cpuMask[core])
}

// l1Insert places a line into a core's L1, spilling dirty victims into L2.
func (h *Hierarchy) l1Insert(now uint64, core int, a uint64, dirty bool) {
	v := h.l1[core].Insert(a, dirty, MaskAll(h.cfg.L1Ways))
	if !v.Valid {
		return
	}
	if v.Dirty {
		if !h.l2[core].SetDirty(v.Addr) {
			h.l2Insert(now, core, v.Addr, true)
		}
	}
	// Clean L1 victims are dropped; L2 usually still holds the line.
}

// fill brings a line into a core's L1+L2 after a fetch from the LLC or
// DRAM. Dirtiness (from a store, or carried up from an exclusive LLC hit)
// lives in exactly one place: l1Dirty when the core just wrote the line,
// l2Dirty when a dirty LLC line migrated up.
func (h *Hierarchy) fill(now uint64, core int, a uint64, l1Dirty, l2Dirty bool) {
	h.l2Insert(now, core, a, l2Dirty)
	h.l1Insert(now, core, a, l1Dirty)
}

// CPURead performs a demand load by core for line a starting at cycle now
// and returns the completion cycle.
//
// On an LLC hit the core receives a clean copy and the LLC line — with its
// dirtiness — stays put (non-inclusive, non-exclusive LLC). This is the
// paper's central dynamic: a consumed RX buffer line remains dirty in the
// LLC where the NIC wrote it, so when later NIC allocations displace it,
// the eviction triggers the wasteful writeback Sweeper exists to remove.
// (An exclusive LLC would instead migrate the dirty line into the large
// private L2s, where slot recycling silently overwrites it — a dynamic
// under which the leaks the paper measures barely occur.)
func (h *Hierarchy) CPURead(now uint64, core int, a uint64) uint64 {
	if h.l1[core].Lookup(a) != Invalid {
		return now + h.cfg.L1Lat
	}
	if h.l2[core].Lookup(a) != Invalid {
		h.l1Insert(now, core, a, false)
		return now + h.cfg.L2Lat
	}
	if h.llc.Lookup(a) != Invalid {
		h.fill(now, core, a, false, false)
		return now + h.cfg.NoCLat + h.cfg.LLCLat
	}
	done := h.sink.DemandRead(now+h.cfg.NoCLat+h.cfg.LLCLat, a, SrcCPU)
	done += h.cfg.NoCLat
	h.fill(now, core, a, false, false)
	return done
}

// CPUWrite performs a store by core for line a (write-allocate) and returns
// the completion cycle. Ownership moves to the core's L1: stale copies below
// are absorbed so a line is dirty in at most one place.
func (h *Hierarchy) CPUWrite(now uint64, core int, a uint64) uint64 {
	if h.l1[core].SetDirty(a) {
		return now + h.cfg.L1Lat
	}
	if h.l2[core].Lookup(a) != Invalid {
		// Promote to L1 dirty; L2 keeps its copy (it will be merged on
		// the L1 victim's way back down).
		h.l1Insert(now, core, a, true)
		return now + h.cfg.L2Lat
	}
	if h.llc.Lookup(a) != Invalid {
		// Take ownership: the LLC copy migrates up and the dirtiest
		// data lives only in L1.
		h.llc.Extract(a)
		h.fill(now, core, a, true, false)
		return now + h.cfg.NoCLat + h.cfg.LLCLat
	}
	done := h.sink.DemandRead(now+h.cfg.NoCLat+h.cfg.LLCLat, a, SrcCPU)
	done += h.cfg.NoCLat
	h.fill(now, core, a, true, false)
	return done
}

// CPUWriteFull performs a full-line store (streaming/write-combining store,
// as log-structured stores use for appends and cores use for response
// construction): the line is allocated dirty in L1 without fetching its old
// contents from below, and any stale copies are invalidated without
// writeback because every byte is overwritten.
func (h *Hierarchy) CPUWriteFull(now uint64, core int, a uint64) uint64 {
	if h.l1[core].SetDirty(a) {
		return now + h.cfg.L1Lat
	}
	h.l2[core].Invalidate(a)
	h.llc.Invalidate(a)
	h.l1Insert(now, core, a, true)
	return now + h.cfg.L1Lat
}

// NICWriteDDIO injects one full line of an incoming packet through DDIO:
// update-in-place on LLC hit, write-allocate into the DDIO ways on miss
// (evicting — and writing back — a dirty victim), never touching DRAM for
// the payload itself. Stale copies in the owning core's private caches are
// invalidated without writeback because the line is fully overwritten.
func (h *Hierarchy) NICWriteDDIO(now uint64, owner int, a uint64) {
	h.l1[owner].Invalidate(a)
	h.l2[owner].Invalidate(a)
	if h.llc.SetDirty(a) {
		return
	}
	h.llcInsert(now, a, true, h.nicMask)
}

// NICWriteDMA injects one line via conventional DMA: cached copies are
// invalidated (no writeback — the line is fully overwritten) and the payload
// is written to DRAM.
func (h *Hierarchy) NICWriteDMA(now uint64, owner int, a uint64) {
	h.l1[owner].Invalidate(a)
	h.l2[owner].Invalidate(a)
	h.llc.Invalidate(a)
	h.sink.DMAWrite(now, a)
}

// NICRead fetches one TX line for transmission, returning the completion
// cycle. Under DDIO the read is served from the owning core's private caches
// or the LLC when possible; under conventional DMA, dirty cached copies are
// first flushed to DRAM and the NIC reads from memory.
func (h *Hierarchy) NICRead(now uint64, owner int, a uint64, dma bool) uint64 {
	if dma {
		return h.nicReadDMA(now, owner, a)
	}
	if h.l1[owner].Peek(a) != Invalid || h.l2[owner].Peek(a) != Invalid {
		// Coherent on-chip forward from the producing core.
		return now + h.cfg.NoCLat + h.cfg.LLCLat
	}
	if h.llc.Lookup(a) != Invalid {
		return now + h.cfg.NoCLat + h.cfg.LLCLat
	}
	return h.sink.DemandRead(now+h.cfg.NoCLat+h.cfg.LLCLat, a, SrcNIC)
}

func (h *Hierarchy) nicReadDMA(now uint64, owner int, a uint64) uint64 {
	// Flush any dirty copy so DRAM holds the data the NIC will read.
	flushed := false
	if _, d := h.l1[owner].Invalidate(a); d {
		flushed = true
	}
	if _, d := h.l2[owner].Invalidate(a); d {
		flushed = true
	}
	if _, d := h.llc.Invalidate(a); d {
		flushed = true
	}
	t := now
	if flushed {
		h.sink.WritebackEvict(t, a)
		t += h.cfg.NoCLat // doorbell-to-flush serialization
	}
	return h.sink.DemandRead(t+h.cfg.NoCLat, a, SrcNIC)
}

// Sweep executes one clsweep for line a owned by core: every copy in the
// hierarchy is invalidated and no writeback is issued, even for dirty
// copies. This is Sweeper's hardware primitive (§V-B). It reports whether a
// dirty copy was dropped (one writeback avoided).
func (h *Hierarchy) Sweep(now uint64, owner int, a uint64) bool {
	_ = now
	h.sweeps++
	dropped := false
	if _, d := h.l1[owner].Invalidate(a); d {
		dropped = true
	}
	if _, d := h.l2[owner].Invalidate(a); d {
		dropped = true
	}
	if _, d := h.llc.Invalidate(a); d {
		dropped = true
	}
	if dropped {
		h.sweptDirty++
	}
	return dropped
}

// CheckInvariants validates internal cache consistency across every level:
// tags and ages agree on which ways are valid, a set's valid ages are
// distinct and within its clock, no line appears twice in a set, and every
// tag maps back to its set. Tests and the sweeperdebug end-of-run check use
// it.
func (h *Hierarchy) CheckInvariants() error {
	for i := range h.l1 {
		if err := h.l1[i].checkSetInvariant(); err != nil {
			return err
		}
		if err := h.l2[i].checkSetInvariant(); err != nil {
			return err
		}
	}
	return h.llc.checkSetInvariant()
}
