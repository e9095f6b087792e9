package machine

import (
	"fmt"

	"sweeper/internal/core"
	"sweeper/internal/obs"
	"sweeper/internal/stats"
)

// Results summarizes one measurement window.
type Results struct {
	// MeasuredCycles is the window length.
	MeasuredCycles uint64
	// Served is the number of requests completed in the window.
	Served uint64
	// ThroughputMrps is the application throughput in millions of
	// requests per second (the paper's primary metric).
	ThroughputMrps float64
	// MemBWGBps is the DRAM bandwidth consumed (reads+writes, 64B each).
	MemBWGBps float64
	// MemBWUtilization is MemBWGBps over the configuration's peak.
	MemBWUtilization float64
	// AccessesPerRequest breaks DRAM transactions per served request
	// down by source, as in Figures 1c/2c/5c/7b.
	AccessesPerRequest [stats.NumKinds]float64
	// AccessCounts holds the raw per-kind transaction counts.
	AccessCounts [stats.NumKinds]uint64
	// DRAMLatMean/P50/P99 summarize DRAM access latency (Figure 6);
	// DRAMLatCDF is the full distribution.
	DRAMLatMean float64
	DRAMLatP50  uint64
	DRAMLatP99  uint64
	DRAMLatCDF  []stats.CDFPoint
	// ReqLatMean/P99/P999 summarize end-to-end request latency (arrival
	// to response posted): the SLO check gates on p99, the SLO-headroom
	// curves plot the p99.9 tail.
	ReqLatMean float64
	ReqLatP99  uint64
	ReqLatP999 uint64
	// AMATCycles is the mean CPU-side hierarchy access latency over the
	// window — the average memory access time the paper's throughput model
	// centres on.
	AMATCycles float64
	// AvgServiceCycles is mean service time excluding queuing; the SLO
	// is defined as 100x this value measured at low load.
	AvgServiceCycles float64
	// Offered counts injection attempts, Dropped the arrivals lost to
	// full rings; DropRate is their ratio.
	Offered  uint64
	Dropped  uint64
	DropRate float64
	// XMemIPC is the collocated tenant's IPC proxy averaged over X-Mem
	// cores (Figure 9), 0 when none are configured.
	XMemIPC float64
	// XMemAccesses counts tenant accesses in the window.
	XMemAccesses uint64
	// LLCMissRatio is the shared-cache miss ratio over the window.
	LLCMissRatio float64
	// Tier1Accesses counts memory transactions served by the hybrid second
	// tier in the window; Tier1BWGBps is the bandwidth they consumed. Both
	// are zero on DRAM-only machines. MemBWGBps above remains DRAM-only, so
	// tiered and untiered runs compare like for like.
	Tier1Accesses uint64
	Tier1BWGBps   float64
	// Sweeper summarizes sweep activity over the whole run.
	Sweeper core.Stats
	// SweeperSavedGBps is the DRAM write bandwidth the sweeps avoided.
	SweeperSavedGBps float64
}

func (r Results) String() string {
	return fmt.Sprintf("%.2f Mrps, %.1f GB/s (%.0f%% util), %.2f acc/req, drop %.4f, p99 %dcyc",
		r.ThroughputMrps, r.MemBWGBps, 100*r.MemBWUtilization,
		totalPerReq(r.AccessesPerRequest), r.DropRate, r.ReqLatP99)
}

func totalPerReq(b [stats.NumKinds]float64) float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// windowSnap captures cumulative counters at the start of a window.
type windowSnap struct {
	breakdown  [stats.NumKinds]uint64
	dramTxns   uint64
	tierTxns   uint64
	served     uint64
	offered    uint64
	dropped    uint64
	xmemAcc    uint64
	llcHits    uint64
	llcMisses  uint64
	sweepDrops uint64
	start      uint64
}

// start schedules every component's initial event: cores, tenant cores and
// the traffic generator, in that order.
func (m *Machine) start() {
	for _, c := range m.cores {
		c.Start()
	}
	for _, x := range m.xmem {
		x.Start()
	}
	switch {
	case m.cgen != nil:
		m.cgen.Start(m.eng.Now())
	case m.agen != nil:
		m.agen.Start()
	}
}

func (m *Machine) snap() windowSnap {
	s := windowSnap{
		breakdown: m.dp.breakdown.Snapshot(),
		dramTxns:  m.dp.dram.Transactions(),
		served:    m.served,
		dropped:   m.nicD.Dropped(),
		llcHits:   m.dp.hier.LLC().Hits(),
		llcMisses: m.dp.hier.LLC().Misses(),
		start:     m.eng.Now(),
	}
	if m.dp.tier1 != nil {
		s.tierTxns = m.dp.tier1.Transactions()
	}
	if m.agen != nil {
		s.offered = m.agen.Offered()
	}
	for _, x := range m.xmem {
		s.xmemAcc += x.Accesses()
	}
	_, s.sweepDrops = m.dp.hier.Sweeps()
	return s
}

// Run executes the machine for warmup cycles, then measures for measure
// cycles, returning the window's results. A machine runs exactly once.
func (m *Machine) Run(warmup, measure uint64) Results {
	m.beginRun(warmup, measure)
	m.start()
	m.eng.RunUntil(warmup)
	m.BeginWindow()
	m.eng.RunUntil(warmup + measure)
	return m.EndWindow(measure)
}

// beginRun performs the once-per-run bookkeeping shared by Run and
// StartNode: the run-once guard, window recording, and sampler arming.
func (m *Machine) beginRun(warmup, measure uint64) {
	if m.ran {
		panic("machine: Run called twice; build a fresh Machine per run")
	}
	if measure == 0 {
		panic("machine: measurement window must be positive")
	}
	m.ran = true
	m.lastWarmup, m.lastMeasure = warmup, measure
	if m.obsOn {
		m.sampler = obs.NewSampler(m.eng, m.Metrics(), m.sampleCadence(warmup+measure))
		m.sampler.Start()
	}
}

// StartNode begins a run without advancing the engine: the run-once
// bookkeeping and every component's initial event, exactly as Run does
// before its first RunUntil. The caller then drives Engine().RunUntil and
// brackets the measurement window with BeginWindow/EndWindow, which is how
// perfbench times the phases of a run. startGen is always nil: the machine
// starts its own generator, and the argument stays only because perfbench
// calls the three-argument form.
func (m *Machine) StartNode(warmup, measure uint64, startGen func()) {
	if startGen != nil {
		panic("machine: StartNode's startGen must be nil")
	}
	m.beginRun(warmup, measure)
	m.start()
}

// BeginWindow resets the window accumulators and opens the measurement
// window. Run calls it at the warmup boundary; StartNode callers call it
// when the engine reaches their warmup.
func (m *Machine) BeginWindow() {
	m.dp.dramLat.Reset()
	m.reqLat.Reset()
	m.svcSum, m.svcCount = 0, 0
	m.amatSum, m.amatCount = 0, 0
	m.measuring = true
	m.dp.measuring = true
	m.winSnap = m.snap()
}

// EndWindow closes the measurement window opened by BeginWindow and
// returns its Results.
func (m *Machine) EndWindow(measure uint64) Results {
	m.measuring = false
	m.dp.measuring = false
	m.finishRun()
	return m.collect(m.winSnap, measure)
}

// finishRun closes out a run: the sampler's final sample and the debug
// build's end-of-run structural check (set mapping and tag uniqueness across
// every cache level).
func (m *Machine) finishRun() {
	if m.sampler != nil {
		m.sampler.Finish(m.eng.Now())
	}
	if obs.ProbesEnabled {
		if err := m.dp.hier.CheckInvariants(); err != nil {
			obs.Failf("machine: cache hierarchy inconsistent after run: %v", err)
		}
	}
}

func (m *Machine) collect(snap windowSnap, measure uint64) Results {
	r := Results{MeasuredCycles: measure}
	freq := m.cfg.FreqHz

	r.Served = m.served - snap.served
	r.ThroughputMrps = stats.Mrps(r.Served, measure, freq)

	txns := m.dp.dram.Transactions() - snap.dramTxns
	r.MemBWGBps = stats.GBps(txns, measure, freq)
	r.MemBWUtilization = r.MemBWGBps / m.dp.dram.PeakGBps(freq)

	if m.dp.tier1 != nil {
		r.Tier1Accesses = m.dp.tier1.Transactions() - snap.tierTxns
		r.Tier1BWGBps = stats.GBps(r.Tier1Accesses, measure, freq)
	}

	r.AccessCounts = m.dp.breakdown.Sub(snap.breakdown)
	r.AccessesPerRequest = stats.PerRequest(r.AccessCounts, r.Served)

	r.DRAMLatMean = m.dp.dramLat.Mean()
	r.DRAMLatP50 = m.dp.dramLat.Percentile(0.50)
	r.DRAMLatP99 = m.dp.dramLat.Percentile(0.99)
	r.DRAMLatCDF = m.dp.dramLat.CDF()

	r.ReqLatMean = m.reqLat.Mean()
	r.ReqLatP99 = m.reqLat.Percentile(0.99)
	r.ReqLatP999 = m.reqLat.Percentile(0.999)
	if m.amatCount > 0 {
		r.AMATCycles = float64(m.amatSum) / float64(m.amatCount)
	}
	if m.svcCount > 0 {
		r.AvgServiceCycles = float64(m.svcSum) / float64(m.svcCount)
	}

	if m.agen != nil {
		r.Offered = m.agen.Offered() - snap.offered
	}
	r.Dropped = m.nicD.Dropped() - snap.dropped
	if r.Offered > 0 {
		r.DropRate = float64(r.Dropped) / float64(r.Offered)
	}

	if len(m.xmem) > 0 {
		var acc uint64
		for _, x := range m.xmem {
			acc += x.Accesses()
		}
		acc -= snap.xmemAcc
		r.XMemAccesses = acc
		perCore := float64(acc) / float64(len(m.xmem))
		instr := float64(m.xmem[0].Stream().InstrPerAccess())
		r.XMemIPC = perCore * instr / float64(measure)
	}

	hits := m.dp.hier.LLC().Hits() - snap.llcHits
	misses := m.dp.hier.LLC().Misses() - snap.llcMisses
	if hits+misses > 0 {
		r.LLCMissRatio = float64(misses) / float64(hits+misses)
	}

	r.Sweeper = m.sweep.Stats()
	_, drops := m.dp.hier.Sweeps()
	r.SweeperSavedGBps = stats.GBps(drops-snap.sweepDrops, measure, freq)
	return r
}
