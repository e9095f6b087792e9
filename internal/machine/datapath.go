package machine

import (
	"sweeper/internal/addr"
	"sweeper/internal/cache"
	"sweeper/internal/mem"
	"sweeper/internal/nic"
	"sweeper/internal/stats"
)

// datapath is the machine's memory side: the physical address space, the
// cache hierarchy and the DRAM model, plus everything that observes traffic
// between them — the classification of every DRAM transaction into the
// paper's breakdown categories, the DRAM latency histogram and the optional
// transaction trace. It implements cache.MemSink (the hierarchy's backing
// store), leaving Machine a thin composition root.
type datapath struct {
	space *addr.Space
	hier  *cache.Hierarchy
	dram  *mem.DDR4

	// Cumulative accounting (window deltas are taken at snap).
	breakdown stats.Breakdown
	dramLat   *stats.Histogram

	measuring bool
	trace     TraceSink
}

// newDatapath assembles the memory side. The hierarchy is wired back to the
// datapath as its memory sink, so every LLC miss and writeback lands in
// classify-and-count before reaching DRAM.
func newDatapath(space *addr.Space, memCfg mem.Config, cacheCfg cache.Config) *datapath {
	dp := &datapath{
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
	dp.hier.Reset()
	dp.dramLat.Reset()
	dp.breakdown.Reset()
	dp.measuring = false
	dp.trace = nil
}

// configure applies the configuration's way-allocation policy: the NIC's
// DDIO ways and, under a §VI-E partition, the per-core LLC masks.
func (dp *datapath) configure(cfg Config) {
	if cfg.NICMode == nic.ModeDDIO {
		dp.hier.SetNICWays(cfg.DDIOWays)
	}
	if n := cfg.PartitionSplit; n > 0 {
		for c := 0; c < cfg.NetCores+cfg.XMemCores; c++ {
			mask := cache.MaskAll(n)
			if c >= cfg.NetCores {
				mask = cache.MaskRange(n, tableI.LLCWays)
			}
			dp.hier.SetCPUWayMask(c, mask)
		}
	}
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
	done := dp.dram.Read(now, a)
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
	dp.dram.Write(now, a)
	kind := dp.evictKind(a)
	dp.breakdown.Add(kind, 1)
	if dp.measuring && dp.trace != nil {
		dp.trace(TraceEvent{Cycle: now, Addr: a, Kind: kind})
	}
}

// DMAWrite implements cache.MemSink.
func (dp *datapath) DMAWrite(now uint64, a uint64) {
	dp.dram.Write(now, a)
	dp.breakdown.Add(stats.NICRXWr, 1)
	if dp.measuring && dp.trace != nil {
		dp.trace(TraceEvent{Cycle: now, Addr: a, Kind: stats.NICRXWr})
	}
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
