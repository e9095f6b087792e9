package machine

import (
	"sweeper/internal/addr"
	"sweeper/internal/cache"
	"sweeper/internal/mem"
	"sweeper/internal/nic"
	"sweeper/internal/sim"
	"sweeper/internal/stats"
)

// datapath is the machine's memory side: the physical address space, the
// cache hierarchy and the DRAM model, plus everything that observes traffic
// between them — the classification of every DRAM transaction into the
// paper's breakdown categories, the DRAM latency histogram, the optional
// transaction trace, and the IAT-style dynamic-DDIO way controller. It
// implements cache.MemSink (the hierarchy's backing store) and sim.Sink
// (the controller's epoch events), leaving Machine a thin composition root.
type datapath struct {
	eng   *sim.Engine
	space *addr.Space
	hier  *cache.Hierarchy
	dram  *mem.DDR4

	// Hybrid-memory second tier; nil when tiering is off, so the DRAM-only
	// fast path costs one pointer test per transaction. place decides per
	// access which tier owns the address.
	tier1 *mem.Tier1
	place *mem.Placement

	// Cumulative accounting (window deltas are taken at snap).
	breakdown stats.Breakdown
	dramLat   *stats.Histogram

	measuring bool
	trace     TraceSink

	// IAT-style dynamic DDIO state; epoch and llcWays are stamped by
	// configure, the rest by startDynamicDDIO.
	dynEpoch       uint64
	llcWays        int
	dynWays        int
	dynAdjustments uint64
	dynLast        [stats.NumKinds]uint64
}

// newDatapath assembles the memory side. The hierarchy is wired back to the
// datapath as its memory sink, so every LLC miss and writeback lands in
// classify-and-count before reaching DRAM.
func newDatapath(eng *sim.Engine, space *addr.Space, memCfg mem.Config, cacheCfg cache.Config) *datapath {
	dp := &datapath{
		eng:     eng,
		space:   space,
		dram:    mem.New(memCfg),
		dramLat: stats.NewHistogram(4, 8192),
	}
	dp.hier = cache.NewHierarchy(cacheCfg, dp)
	return dp
}

// reset returns the datapath to its just-constructed state, reusing the
// space, hierarchy and DRAM allocations (the machine's Reset geometry check
// guarantees they fit the new configuration).
func (dp *datapath) reset() {
	dp.space.Reset()
	dp.dram.Reset()
	dp.tier1, dp.place = nil, nil
	dp.hier.Reset()
	dp.dramLat.Reset()
	dp.breakdown.Reset()
	dp.measuring = false
	dp.trace = nil
	dp.dynEpoch, dp.llcWays = 0, 0
	dp.dynWays, dp.dynAdjustments = 0, 0
	dp.dynLast = [stats.NumKinds]uint64{}
}

// configure applies the configuration's way-allocation policy: the NIC's
// DDIO ways (or explicit mask) and the per-core LLC masks of the §VI-E
// partition scenarios. It also stamps the dynamic-DDIO controller's bounds.
func (dp *datapath) configure(cfg Config) {
	if cfg.NICMode == nic.ModeDDIO {
		if cfg.NICWayMask != 0 {
			dp.hier.SetNICWayMask(cfg.NICWayMask)
		} else {
			dp.hier.SetNICWays(cfg.DDIOWays)
		}
	}
	if cfg.XMemWayMask != 0 {
		for i := 0; i < cfg.XMemCores; i++ {
			dp.hier.SetCPUWayMask(cfg.NetCores+i, cfg.XMemWayMask)
		}
	}
	if cfg.NetCPUWayMask != 0 {
		for i := 0; i < cfg.NetCores; i++ {
			dp.hier.SetCPUWayMask(i, cfg.NetCPUWayMask)
		}
	}
	dp.dynEpoch = cfg.DynamicDDIOEpoch
	dp.llcWays = cfg.Cache.LLCWays
	if cfg.MemTier.Enabled() {
		dp.tier1 = mem.NewTier1(cfg.MemTier, cfg.FreqHz)
		dp.place = mem.NewPlacement(cfg.MemTier, dp.space.AppBase())
	}
}

// memRead routes a timed line read to the owning tier.
func (dp *datapath) memRead(now uint64, a uint64) uint64 {
	if dp.tier1 != nil && dp.place.Route(now, a) {
		return dp.tier1.Read(now, a)
	}
	return dp.dram.Read(now, a)
}

// memWrite routes a timed line write to the owning tier.
func (dp *datapath) memWrite(now uint64, a uint64) {
	if dp.tier1 != nil && dp.place.Route(now, a) {
		dp.tier1.Write(now, a)
		return
	}
	dp.dram.Write(now, a)
}

// readKind classifies a demand read into the paper's breakdown categories by
// requestor and address class.
func (dp *datapath) readKind(a uint64, src cache.Requestor) stats.AccessKind {
	if src == cache.SrcNIC {
		return stats.NICTXRd
	}
	switch cls, _ := dp.space.Classify(a); cls {
	case addr.ClassRX:
		return stats.CPURXRd
	case addr.ClassTX:
		return stats.CPUTXRdWr
	default:
		return stats.CPUOtherRd
	}
}

// evictKind classifies a writeback by address class.
func (dp *datapath) evictKind(a uint64) stats.AccessKind {
	switch cls, _ := dp.space.Classify(a); cls {
	case addr.ClassRX:
		return stats.RXEvct
	case addr.ClassTX:
		return stats.TXEvct
	default:
		return stats.OtherEvct
	}
}

// DemandRead implements cache.MemSink, classifying the transaction into the
// paper's breakdown categories by requestor and address class.
func (dp *datapath) DemandRead(now uint64, a uint64, src cache.Requestor) uint64 {
	done := dp.memRead(now, a)
	kind := dp.readKind(a, src)
	dp.breakdown.Add(kind, 1)
	if dp.measuring {
		dp.dramLat.Record(done - now)
		if dp.trace != nil {
			dp.trace(TraceEvent{Cycle: now, Addr: a, Kind: kind, LatencyCycles: done - now})
		}
	}
	return done
}

// WritebackEvict implements cache.MemSink.
func (dp *datapath) WritebackEvict(now uint64, a uint64) {
	dp.memWrite(now, a)
	kind := dp.evictKind(a)
	dp.breakdown.Add(kind, 1)
	if dp.measuring && dp.trace != nil {
		dp.trace(TraceEvent{Cycle: now, Addr: a, Kind: kind})
	}
}

// DMAWrite implements cache.MemSink.
func (dp *datapath) DMAWrite(now uint64, a uint64) {
	dp.memWrite(now, a)
	dp.breakdown.Add(stats.NICRXWr, 1)
	if dp.measuring && dp.trace != nil {
		dp.trace(TraceEvent{Cycle: now, Addr: a, Kind: stats.NICRXWr})
	}
}

// startDynamicDDIO arms the IAT-style epoch controller from the
// configuration's initial way allocation.
func (dp *datapath) startDynamicDDIO(initialWays int) {
	dp.dynWays = initialWays
	dp.eng.ScheduleAfter(dp.dynEpoch, dp, 0)
}

// OnEvent implements sim.Sink: the datapath's only self-scheduled event is
// the dynamic-DDIO epoch controller.
func (dp *datapath) OnEvent(now uint64, _ uint64) { dp.dynamicDDIO(now) }

// dynamicDDIO is the IAT-style epoch controller (related work, §VII): it
// widens the DDIO allocation while network leaks dominate recent DRAM
// traffic and narrows it while application traffic dominates.
func (dp *datapath) dynamicDDIO(now uint64) {
	cur := dp.breakdown.Snapshot()
	netLeak := (cur[stats.RXEvct] - dp.dynLast[stats.RXEvct]) +
		(cur[stats.CPURXRd] - dp.dynLast[stats.CPURXRd])
	appPressure := (cur[stats.OtherEvct] - dp.dynLast[stats.OtherEvct]) +
		(cur[stats.CPUOtherRd] - dp.dynLast[stats.CPUOtherRd])
	dp.dynLast = cur

	switch {
	case netLeak > appPressure+appPressure/5 && dp.dynWays < dp.llcWays:
		dp.dynWays++
		dp.hier.SetNICWays(dp.dynWays)
		dp.dynAdjustments++
	case appPressure > netLeak+netLeak/5 && dp.dynWays > 2:
		dp.dynWays--
		dp.hier.SetNICWays(dp.dynWays)
		dp.dynAdjustments++
	}
	dp.eng.ScheduleAfter(dp.dynEpoch, dp, 0)
}

// warmLLC fills the LLC and every private L2 with application data lines
// resembling the steady-state content of a long-running store, so
// measurement windows observe realistic dirty-eviction traffic from the
// first cycle instead of a cold 36MB cache slowly absorbing the write
// stream. The fill uses a dedicated "legacy" region rather than live log
// addresses: warm lines must drain exactly once, never re-entering the
// hierarchy through later reads.
func (dp *datapath) warmLLC(cfg Config) {
	llcLines := uint64(dp.hier.LLC().Sets() * dp.hier.LLC().Ways())
	l2 := dp.hier.L2(0)
	l2LinesTotal := uint64(l2.Sets()*l2.Ways()) * uint64(cfg.NetCores+cfg.XMemCores)
	base := dp.space.AllocApp((llcLines + 2*l2LinesTotal) * addr.LineBytes)
	// The warm mix mirrors each mode's steady state, so the warm
	// content's drain is statistically indistinguishable from steady
	// operation:
	//
	//   - The LLC's application content is mostly dirty (appended log
	//     lines awaiting writeback); under DMA, clean RX read copies
	//     also stream through it, diluting the dirty fraction.
	//   - Each L2 holds recent dirty appends (addresses disjoint from
	//     the LLC fill, so their eviction displaces LLC lines and
	//     sustains the writeback stream). Under DDIO it also holds clean
	//     read copies of LLC-resident lines, whose eviction merges in
	//     place exactly like recycled RX-read copies do; under DMA the
	//     clean copies displace (DMA invalidates LLC copies on reuse);
	//     under Ideal-DDIO network buffers never enter the L2 at all.
	var llcDirty10, l2CleanFrac2 int // dirty tenths; clean halves
	aliasClean := false
	switch cfg.NICMode {
	case nic.ModeIdeal:
		llcDirty10, l2CleanFrac2 = 9, 0
	case nic.ModeDMA:
		llcDirty10, l2CleanFrac2 = 5, 1
	default: // DDIO
		llcDirty10, l2CleanFrac2 = 9, 1
		aliasClean = true
	}

	llc := dp.hier.LLC()
	mask := cache.MaskAll(llc.Ways())
	nLines := uint64(llc.Sets() * llc.Ways())
	for k := uint64(0); k < nLines; k++ {
		llc.Insert(base+k*addr.LineBytes, int(k%10) < llcDirty10, mask)
	}
	total := cfg.NetCores + cfg.XMemCores
	l2Base := base + nLines*addr.LineBytes
	cleanBase := l2Base // DMA: disjoint clean lines, displacing on eviction
	if aliasClean {
		cleanBase = base // DDIO: clean copies of LLC lines, merging
	}
	for c := 0; c < total; c++ {
		l2 := dp.hier.L2(c)
		l2Mask := cache.MaskAll(l2.Ways())
		l2Lines := uint64(l2.Sets() * l2.Ways())
		dirtyOff := l2Base + uint64(c)*2*l2Lines*addr.LineBytes
		cleanOff := cleanBase + (uint64(c)*2+1)*l2Lines*addr.LineBytes
		if aliasClean {
			cleanOff = cleanBase + uint64(c)*l2Lines/2*addr.LineBytes
		}
		for k := uint64(0); k < l2Lines; k++ {
			if l2CleanFrac2 == 1 && k%2 == 1 {
				l2.Insert(cleanOff+k/2*addr.LineBytes, false, l2Mask)
			} else {
				l2.Insert(dirtyOff+k*addr.LineBytes, true, l2Mask)
			}
		}
	}
}
