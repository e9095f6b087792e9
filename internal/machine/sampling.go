package machine

import (
	"math"

	"sweeper/internal/addr"
	"sweeper/internal/nic"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// Sampled simulation (DESIGN.md §12). A sampled run replaces one long
// detailed measurement window with a SMARTS-style schedule:
//
//	[functional warm-up] ([detailed-warm][detailed][fast-forward])*
//
// Fast-forward spans execute every request functionally — caches, DRAM row
// buffers and workload state stay warm, but no timing-wheel traffic is
// generated per memory access — while detailed spans run the full timing
// model. Each measured interval is preceded by an unmeasured detailed-warm
// prefix that re-establishes queue and MSHR-level timing state before
// statistics are recorded. Per-interval results feed Welford accumulators,
// so the run reports point estimates with 95% confidence intervals.

// Phase labels stamped into the observability time-series during a sampled
// run (obs.Sampler.SetPhase).
const (
	phaseWarmupFF     = "warmup-ff"
	phaseDetailedWarm = "detailed-warm"
	phaseDetailed     = "detailed"
	phaseFastForward  = "fast-forward"
)

// minCIIntervals is the smallest sample "ci" mode will stop at: below four
// intervals the Student-t half-width is too wide to mean anything.
const minCIIntervals = 4

// SamplingSummary reports what a sampled run did and the per-metric interval
// estimates. Results.Sampled carries it; full detailed runs leave it nil.
type SamplingSummary struct {
	// Mode is the sampling mode that ran ("fixed" or "ci").
	Mode string `json:"mode"`
	// Intervals is the number of measured detailed intervals.
	Intervals int `json:"intervals"`
	// DetailedCycles and FastForwardCycles are the resolved interval lengths.
	DetailedCycles    uint64 `json:"detailed_cycles"`
	FastForwardCycles uint64 `json:"fast_forward_cycles"`
	// WarmupDetected reports whether the steady-state detector fired before
	// the warm-up budget expired; WarmupEndCycle is where warm-up ended
	// either way.
	WarmupDetected bool   `json:"warmup_detected"`
	WarmupEndCycle uint64 `json:"warmup_end_cycle"`
	// SimulatedCycles is the total simulated span (warm-up, detailed and
	// fast-forward); MeasuredCycles is the detailed-interval sum — their
	// ratio against a full run's span is the sampling speedup lever.
	SimulatedCycles uint64 `json:"simulated_cycles"`
	MeasuredCycles  uint64 `json:"measured_cycles"`
	// Per-metric interval estimates: mean over the measured intervals with
	// the 95% CI half-width (Student-t below 30 intervals).
	Throughput  stats.Estimate `json:"throughput_mrps"`
	AMAT        stats.Estimate `json:"amat_cycles"`
	MemBW       stats.Estimate `json:"mem_bw_gbps"`
	DRAMLatMean stats.Estimate `json:"dram_lat_mean"`
	ReqLatMean  stats.Estimate `json:"req_lat_mean"`
	ReqLatP99   stats.Estimate `json:"req_lat_p99"`
}

// FastForwarding implements cpu.FFEnv.
func (m *Machine) FastForwarding() bool { return m.ff }

// setFastForward flips the whole machine between timed and functional
// execution: the hierarchy reroutes its memory sink to the functional
// datapath entry points (misses complete at the owning tier's unloaded
// latency), and cores pick up the flag on their next poll. On tiered
// machines a per-address stamp replaces the flat DRAM estimate — an
// NVM-resident page's miss must cost its own tier's latency.
func (m *Machine) setFastForward(on bool) {
	m.ff = on
	m.dp.hier.SetFastForward(on, m.dp.dram.UnloadedReadLatency())
	if on && m.dp.tier1 != nil {
		m.dp.hier.SetFastForwardLatency(m.dp.ffLat)
	}
}

// setPhase tags the observability time-series, when one is armed.
func (m *Machine) setPhase(phase string) {
	if m.sampler != nil {
		m.sampler.SetPhase(phase)
	}
}

// ffBatch approximates MLP overlap without per-access events: independent
// accesses accumulate in batches of width, each batch contributing its
// slowest member to the serial total — the same max-of-batch rule the timed
// core applies per step.
type ffBatch struct {
	width    int
	n        int
	max, sum uint64
}

func (b *ffBatch) add(lat uint64) {
	if lat > b.max {
		b.max = lat
	}
	if b.n++; b.n == b.width {
		b.sum += b.max
		b.n, b.max = 0, 0
	}
}

func (b *ffBatch) finish() uint64 {
	b.sum += b.max
	b.n, b.max = 0, 0
	return b.sum
}

// FFServe implements cpu.FFEnv: one whole request served functionally in a
// single call. Every cache touch the timed pipeline would perform happens
// (RX payload reads, the workload's accesses, TX stores, the relinquish
// sweep), so the hierarchy's content evolves exactly as under detailed
// execution; only the per-access event traffic and DRAM bank/bus timing are
// skipped. The returned completion cycle is a flat-latency approximation —
// good enough to keep closed-loop pacing and ring occupancy realistic, never
// used for measurement.
//
// Access order differs from the timed pipeline in one way: drivers with a
// FastForward path interleave their touches before the remaining RX payload
// lines instead of after. Within a single request that only permutes
// recency order, which has no observable effect at sampling granularity.
func (m *Machine) FFServe(now uint64, c int, p nic.Packet, txAddr uint64) (uint64, bool) {
	t := now + m.cfg.PollCycles
	b := ffBatch{width: m.cfg.MLPWidth}

	// Header line first, as the timed pipeline does.
	b.add(m.RXRead(t, c, p.Addr) - t)

	touch := func(a uint64, write, full bool) {
		var d uint64
		switch {
		case write && full:
			d = m.AppWriteFull(t, c, a)
		case write:
			d = m.AppWrite(t, c, a)
		default:
			d = m.AppRead(t, c, a)
		}
		b.add(d - t)
	}

	var req workload.FFRequest
	if f, ok := m.drv.(workload.FastForwarder); ok {
		req = f.FastForward(p.Tag, p.Size, touch)
	} else {
		// Fallback for drivers without a functional path: build the timed
		// plan and execute its accesses directly.
		m.drv.PlanRequest(p.Tag, p.Size, &m.ffPlan)
		for _, op := range m.ffPlan.Ops {
			touch(op.Addr, op.Write, op.FullLine)
		}
		req = workload.FFRequest{
			RespBytes:      m.ffPlan.RespBytes,
			ComputeCycles:  m.ffPlan.ComputeCycles,
			ReadFullPacket: m.ffPlan.ReadFullPacket,
		}
	}

	if req.ReadFullPacket && p.Size > addr.LineBytes {
		m.ffLines = addr.LineAddrs(m.ffLines[:0], p.Addr, p.Size)
		for _, a := range m.ffLines[1:] {
			b.add(m.RXRead(t, c, a) - t)
		}
	}

	done := t + b.finish() + req.ComputeCycles + m.ExtraServiceCycles(c, p.Tag)

	// Consume the buffer: relinquish before recycling the slot, the §V-A
	// ordering the timed pipeline enforces. Both calls are functional-safe —
	// sweeps route dropped writebacks through the functional sink.
	done = m.Relinquish(done, c, p.Addr, p.Size)
	m.FreeRXSlot(c)

	txBytes := req.RespBytes
	if txBytes > m.ffRespSlot {
		txBytes = m.ffRespSlot
	}
	if txBytes > 0 {
		m.ffLines = addr.LineAddrs(m.ffLines[:0], txAddr, txBytes)
		tb := ffBatch{width: m.cfg.MLPWidth}
		for _, a := range m.ffLines {
			tb.add(m.TXWrite(done, c, a) - done)
		}
		done += tb.finish()
		m.Transmit(done, nic.WorkQueueEntry{
			Owner:       c,
			BufAddr:     txAddr,
			Size:        txBytes,
			SweepBuffer: m.cfg.Sweeper.TXSweep,
		})
	}

	m.ffLatSum += done - now
	m.ffLatCount++
	m.OnRequestDone(done, c, p, done-now)
	return done, txBytes > 0
}

// warmupWindow holds one warm-up detector window's metrics — served
// requests, LLC hit rate and the functional request-latency proxy — plus the
// sample counts behind them, which set each metric's noise floor.
type warmupWindow struct {
	served  float64
	hitRate float64
	ffLat   float64
	reqs    float64 // served count: Poisson noise floor for served and ffLat
	accs    float64 // LLC accesses: binomial noise floor for hitRate
}

// stableAgainst reports whether cur's windowed deltas from prev all sit
// within tolerance. Each metric's tolerance is floored at 3x its own
// per-window sampling noise — Poisson relative noise 1/√n for the served
// count and the latency mean, binomial √(p(1-p)/n)/p for the hit rate — so
// a single knob expresses genuinely detectable drift: shot noise on a
// low-traffic window can never be mistaken for a warming transient, and a
// slow drift buried below the noise floor is, by construction, smaller than
// the run-to-run noise of a full detailed window of the same length.
func (cur warmupWindow) stableAgainst(prev warmupWindow, tol float64) bool {
	countTol := tol
	if n := math.Min(prev.reqs, cur.reqs); n > 0 {
		countTol = math.Max(tol, 3/math.Sqrt(n))
	}
	rateTol := tol
	if n := math.Min(prev.accs, cur.accs); n > 0 {
		if p := (prev.hitRate + cur.hitRate) / 2; p > 0 && p < 1 {
			rateTol = math.Max(tol, 3*math.Sqrt(p*(1-p)/n)/p)
		}
	}
	return relDelta(prev.served, cur.served) <= countTol &&
		relDelta(prev.hitRate, cur.hitRate) <= rateTol &&
		relDelta(prev.ffLat, cur.ffLat) <= countTol
}

// relDelta is the detector's stability measure between consecutive windows.
// Two zero windows are stable (an idle metric has converged); a metric
// appearing from zero is maximally unstable.
func relDelta(prev, cur float64) float64 {
	if prev == cur {
		return 0
	}
	if prev == 0 {
		return 1
	}
	return math.Abs(cur-prev) / math.Abs(prev)
}

// sampleDone is the interval scheduler's stop rule.
func sampleDone(sc SamplingConfig, n int, tput, amat *stats.Welford) bool {
	if sc.Mode == samplingModeFixed {
		return n >= sc.Intervals
	}
	// "ci": stop when both primary metrics are tight enough, bounded above.
	if n >= sc.MaxIntervals {
		return true
	}
	if n < minCIIntervals {
		return false
	}
	return tput.Estimate().RelHalfWidth() <= sc.MaxRelCI &&
		amat.Estimate().RelHalfWidth() <= sc.MaxRelCI
}

// runSampled executes the sampled-simulation schedule; Run dispatches here
// (after arming the sampler and starting every component) when
// Config.Sampling selects a mode. The warmup argument is a budget, not a
// fixed span: fast-forward warm-up ends as soon as the steady-state detector
// fires.
func (m *Machine) runSampled(warmup uint64) Results {
	sc := m.cfg.Sampling.withDefaults()

	// Phase 1 — functional warm-up with steady-state detection: fast-forward
	// in windows, watching windowed deltas of served throughput, LLC hit
	// rate and the functional latency proxy. All three within tolerance for
	// WarmupWindows consecutive windows ⇒ steady state.
	m.setFastForward(true)
	m.setPhase(phaseWarmupFF)
	var (
		detected bool
		prev     warmupWindow
		havePrev bool
		stable   int
	)
	for m.eng.Now() < warmup {
		next := m.eng.Now() + sc.WarmupWindowCycles
		if next > warmup {
			next = warmup
		}
		served0 := m.served
		hits0, miss0 := m.dp.hier.LLC().Hits(), m.dp.hier.LLC().Misses()
		ffSum0, ffCnt0 := m.ffLatSum, m.ffLatCount
		m.eng.RunUntil(next)

		cur := warmupWindow{served: float64(m.served - served0)}
		cur.reqs = cur.served
		dh, dm := m.dp.hier.LLC().Hits()-hits0, m.dp.hier.LLC().Misses()-miss0
		cur.accs = float64(dh + dm)
		if dh+dm > 0 {
			cur.hitRate = float64(dh) / float64(dh+dm)
		}
		if dc := m.ffLatCount - ffCnt0; dc > 0 {
			cur.ffLat = float64(m.ffLatSum-ffSum0) / float64(dc)
		}
		if havePrev && cur.stableAgainst(prev, sc.WarmupMetricTol) {
			stable++
		} else {
			stable = 0
		}
		prev, havePrev = cur, true
		if stable >= sc.WarmupWindows {
			detected = true
			break
		}
	}
	warmupEnd := m.eng.Now()

	// Phase 2 — alternating intervals. Each iteration: timed-but-unmeasured
	// detailed-warm prefix, measured detailed interval (its own collect,
	// fed into the accumulators), then — unless the stop rule fires — a
	// fast-forward span.
	warmPrefix := sc.DetailedCycles
	accDram := stats.NewHistogram(4, 8192)
	accReq := stats.NewHistogram(64, 8192)
	var (
		wTput, wAMAT, wBW, wDram, wReq, wP99 stats.Welford

		sums struct {
			served, offered, dropped, xmem uint64
			svcSum, svcCnt                 uint64
			hits, misses, sweepDrops       uint64
			tierAccesses                   uint64
		}
		counts    [stats.NumKinds]uint64
		intervals int
	)
	for {
		m.setFastForward(false)
		m.setPhase(phaseDetailedWarm)
		m.eng.RunUntil(m.eng.Now() + warmPrefix)

		m.dp.dramLat.Reset()
		m.reqLat.Reset()
		m.svcSum, m.svcCount = 0, 0
		m.amatSum, m.amatCount = 0, 0
		m.measuring, m.dp.measuring = true, true
		m.setPhase(phaseDetailed)
		s := m.snap()
		m.eng.RunUntil(m.eng.Now() + sc.DetailedCycles)
		m.measuring, m.dp.measuring = false, false

		ri := m.collect(s, sc.DetailedCycles)
		intervals++
		wTput.Add(ri.ThroughputMrps)
		wAMAT.Add(ri.AMATCycles)
		wBW.Add(ri.MemBWGBps)
		wDram.Add(ri.DRAMLatMean)
		wReq.Add(ri.ReqLatMean)
		wP99.Add(float64(ri.ReqLatP99))
		sums.served += ri.Served
		sums.offered += ri.Offered
		sums.dropped += ri.Dropped
		sums.xmem += ri.XMemAccesses
		sums.svcSum += m.svcSum
		sums.svcCnt += m.svcCount
		sums.hits += m.dp.hier.LLC().Hits() - s.llcHits
		sums.misses += m.dp.hier.LLC().Misses() - s.llcMisses
		_, drops := m.dp.hier.Sweeps()
		sums.sweepDrops += drops - s.sweepDrops
		sums.tierAccesses += ri.Tier1Accesses
		for k := range counts {
			counts[k] += ri.AccessCounts[k]
		}
		accDram.Merge(m.dp.dramLat)
		accReq.Merge(m.reqLat)

		if sampleDone(sc, intervals, &wTput, &wAMAT) {
			break
		}
		m.setFastForward(true)
		m.setPhase(phaseFastForward)
		m.eng.RunUntil(m.eng.Now() + sc.FastForwardCycles)
	}
	m.setFastForward(false)
	m.finishRun()

	// Assemble the run's Results: rate metrics are interval means (with CIs
	// in Sampled), distributions come from the merged per-interval
	// histograms, counters are summed over the measured intervals.
	total := uint64(intervals) * sc.DetailedCycles
	freq := m.cfg.FreqHz
	r := Results{MeasuredCycles: total}
	r.Served = sums.served
	r.ThroughputMrps = wTput.Mean()
	r.AMATCycles = wAMAT.Mean()
	r.MemBWGBps = wBW.Mean()
	r.MemBWUtilization = r.MemBWGBps / m.dp.dram.PeakGBps(freq)
	r.AccessCounts = counts
	r.AccessesPerRequest = stats.PerRequest(counts, sums.served)
	r.DRAMLatMean = accDram.Mean()
	r.DRAMLatP50 = accDram.Percentile(0.50)
	r.DRAMLatP99 = accDram.Percentile(0.99)
	r.DRAMLatCDF = accDram.CDF()
	r.ReqLatMean = accReq.Mean()
	r.ReqLatP99 = accReq.Percentile(0.99)
	if sums.svcCnt > 0 {
		r.AvgServiceCycles = float64(sums.svcSum) / float64(sums.svcCnt)
	}
	r.Offered = sums.offered
	r.Dropped = sums.dropped
	if sums.offered > 0 {
		r.DropRate = float64(sums.dropped) / float64(sums.offered)
	}
	if len(m.xmem) > 0 {
		r.XMemAccesses = sums.xmem
		perCore := float64(sums.xmem) / float64(len(m.xmem))
		instr := float64(m.xmem[0].Stream().InstrPerAccess())
		r.XMemIPC = perCore * instr / float64(total)
	}
	if sums.hits+sums.misses > 0 {
		r.LLCMissRatio = float64(sums.misses) / float64(sums.hits+sums.misses)
	}
	r.Sweeper = m.sweep.Stats()
	r.SweeperSavedGBps = stats.GBps(sums.sweepDrops, total, freq)
	r.Tier1Accesses = sums.tierAccesses
	r.Tier1BWGBps = stats.GBps(sums.tierAccesses, total, freq)
	r.Sampled = &SamplingSummary{
		Mode:              sc.Mode,
		Intervals:         intervals,
		DetailedCycles:    sc.DetailedCycles,
		FastForwardCycles: sc.FastForwardCycles,
		WarmupDetected:    detected,
		WarmupEndCycle:    warmupEnd,
		SimulatedCycles:   m.eng.Now(),
		MeasuredCycles:    total,
		Throughput:        wTput.Estimate(),
		AMAT:              wAMAT.Estimate(),
		MemBW:             wBW.Estimate(),
		DRAMLatMean:       wDram.Estimate(),
		ReqLatMean:        wReq.Estimate(),
		ReqLatP99:         wP99.Estimate(),
	}
	return r
}
