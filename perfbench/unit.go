package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"sweeper/internal/cache"
	"sweeper/internal/experiments"
	"sweeper/internal/machine"
	"sweeper/internal/mem"
)

// opResult is the outcome of one operation (one search or one cell).
type opResult struct {
	Name string `json:"name"`
	// Digest is the SHA-256 of the operation's simulated outputs in
	// canonical JSON form; Row is its figure row as CSV (header, row).
	Digest string `json:"digest"`
	Row    string `json:"row"`
	Err    string `json:"err,omitempty"`
}

// unitReport is what one benchmark process reports about one unit: a whole
// workload run once.
type unitReport struct {
	Workload   string     `json:"workload"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	// SetupS and WallS are raw host times. The host-speed meter (see
	// meter.go) reports its median timed-pass time in the warm-up before the
	// clock started and during the unit, and its own time inside set-up
	// and inside the whole unit.
	SetupS      float64    `json:"setup_s"`
	WallS       float64    `json:"wall_s"`
	MeterWarmNs float64    `json:"meter_warm_ns,omitempty"`
	MeterNs     float64    `json:"meter_ns,omitempty"`
	SetupMeterS float64    `json:"setup_meter_s,omitempty"`
	MeterS      float64    `json:"meter_s,omitempty"`
	AllocBytes  uint64     `json:"alloc_bytes"`
	Ops         []opResult `json:"ops"`
	// Err is a failure outside any operation.
	Err string `json:"err,omitempty"`
	// Traced units only: wall time without the traced-only peak re-run
	// and DRAM replay, the spans and hot-call aggregates, and the
	// per-layer metrics derived from them.
	CommonWallS float64            `json:"common_wall_s,omitempty"`
	Spans       []Span             `json:"spans,omitempty"`
	Hot         []hotStat          `json:"hot,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// unitOpts selects what one unit runs.
type unitOpts struct {
	w      workloadDef
	seed   int64
	sc     experiments.Scale
	traced bool
}

// catch runs fn, turning a panic into an error.
func catch(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// runUnit runs one unit in this process. Set-up is the host time before the
// first timed simulation: the first machine build (with its workload driver
// and warm fill) and, for a peak search, the calibration run it starts with.
func runUnit(o unitOpts) (unitReport, error) {
	rep := unitReport{Workload: o.w.name, Traced: o.traced, Provenance: newProvenance(o.seed, o.sc)}
	jobs, err := seededJobs(o.w, o.seed)
	if err != nil {
		return rep, err
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
		for i := range jobs {
			if jobs[i].cfg, err = tr.instrument(jobs[i].cfg); err != nil {
				return rep, err
			}
		}
	}
	mt := newMeter()
	mt.warm(meterWarm)
	rep.MeterWarmNs, _ = mt.since(reading{})
	r0 := mt.read()
	stop := mt.start()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	setupDone := func() {
		rep.SetupS = time.Since(start).Seconds()
		_, d := mt.since(r0)
		rep.SetupMeterS = d.Seconds()
	}
	var rec *recorded
	if jobs[0].depth == 0 {
		rep.Ops, rec = runSearch(jobs[0], o, tr, setupDone)
	} else {
		rep.Ops, rec = runCells(jobs, o, tr, setupDone)
	}
	stop()
	rep.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ns, d := mt.since(r0)
	rep.MeterNs, rep.MeterS = ns, d.Seconds()
	if tr != nil {
		rep.CommonWallS = rep.WallS
		if rec != nil {
			rep.CommonWallS -= rec.extraS
		}
		if tr.err != nil {
			return rep, tr.err
		}
		rep.Spans, rep.Hot = tr.spans, tr.hot[:]
		if rec != nil {
			rep.Layers = layerMetrics(tr, rec)
		}
	}
	return rep, nil
}

// recorded is the job the traced run reads exact counters from: its
// results, closing metric values and cache flow, and its DRAM stream's
// replay cost.
type recorded struct {
	job      int
	res      machine.Results
	final    map[string]float64
	flow     cache.FlowStats
	cycles   uint64 // simulated cycles of the job
	channels int
	txns     int
	replayNs int64
	peakMrps float64
	simCyc   uint64 // simulated cycles of every job of the unit
	// extraS is host time the traced run spends on work the untraced
	// run does not do (the peak re-run and the replay).
	extraS float64
}

// runSearch runs a peak search. Traced, it brackets the calibration and the
// search, then re-runs the peak probe on a fresh machine with its DRAM
// stream recorded, and requires that re-run to equal PeakResult.At.
func runSearch(j job, o unitOpts, tr *tracer, setupDone func()) ([]opResult, *recorded) {
	var pk experiments.PeakResult
	var rec *recorded
	err := catch(func() error {
		if tr == nil {
			experiments.Calibrate(j.cfg, o.sc)
			setupDone()
			pk = experiments.PeakThroughput(j.cfg, o.sc)
			return nil
		}
		tr.job = 0
		id := tr.begin("experiments.Calibrate")
		experiments.Calibrate(j.cfg, o.sc)
		tr.end(id)
		setupDone()
		tr.job = -1
		id = tr.begin("experiments.PeakThroughput")
		tr.startProbing()
		pk = experiments.PeakThroughput(j.cfg, o.sc)
		tr.stopProbing()
		tr.end(id)

		extra := time.Now()
		c := j.cfg
		c.ClosedLoopDepth = 0
		c.OfferedMrps = pk.PeakMrps
		c.Shards = o.sc.Shards
		tr.job = tr.probes + 1
		id = tr.begin("machine.New")
		m, err := machine.New(c)
		tr.end(id)
		if err != nil {
			return err
		}
		if rec, err = tr.runRecorded(m, o.sc); err != nil {
			return err
		}
		if !reflect.DeepEqual(rec.res, pk.At) {
			return fmt.Errorf("re-run of the peak probe at %.4f Mrps differs from PeakResult.At", pk.PeakMrps)
		}
		w, meas := o.sc.Warmup, o.sc.Measure
		rec.peakMrps = pk.PeakMrps
		rec.simCyc = w/2 + meas + uint64(tr.probes+1)*(w+meas)
		rec.extraS = time.Since(extra).Seconds()
		return nil
	})
	return []opResult{searchOp(j, pk, err)}, rec
}

// runCells runs closed-loop cells on one benchmark-owned machine pool.
// Traced, each Run is decomposed into its warm-up and measurement phases
// and the workload's record cell has its DRAM stream recorded.
func runCells(jobs []job, o unitOpts, tr *tracer, setupDone func()) ([]opResult, *recorded) {
	pool := machine.NewPool(1)
	built := map[*machine.Machine]bool{}
	var rec *recorded
	var ops []opResult
	for i, j := range jobs {
		var r machine.Results
		err := catch(func() error {
			if tr != nil {
				tr.job = i
			}
			m, err := getMachine(pool, built, j.cfg, tr)
			if err != nil {
				return err
			}
			if i == 0 {
				setupDone()
			}
			switch {
			case tr == nil:
				r = m.Run(o.sc.Warmup, o.sc.Measure)
			case i == o.w.record:
				if rec, err = tr.runRecorded(m, o.sc); err != nil {
					return err
				}
				r = rec.res
			default:
				r = tr.runPhases(m, o.sc)
			}
			pool.Put(m)
			return nil
		})
		ops = append(ops, cellOp(j, r, err))
	}
	if rec != nil {
		rec.simCyc = uint64(len(jobs)) * (o.sc.Warmup + o.sc.Measure)
		rec.extraS = float64(rec.replayNs) / 1e9
	}
	return ops, rec
}

// getMachine takes a machine for cfg from pool. Traced, the call is a span
// named after what the pool did: built tracks the machines it has handed
// out, which tells a build from a reset.
func getMachine(pool *machine.Pool, built map[*machine.Machine]bool, cfg machine.Config, tr *tracer) (*machine.Machine, error) {
	if tr == nil {
		return pool.Get(cfg)
	}
	id := tr.begin("machine.Pool.Get")
	m, err := pool.Get(cfg)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	if built[m] {
		tr.rename(id, "machine.Reset")
	} else {
		tr.rename(id, "machine.New")
		built[m] = true
	}
	tr.end(id)
	return m, nil
}

// runPhases is m.Run decomposed into the calls it makes, StartNode,
// RunUntil(warmup), BeginWindow, RunUntil(end) and EndWindow, with the
// warm-up and the measurement window each a span.
func (t *tracer) runPhases(m *machine.Machine, sc experiments.Scale) machine.Results {
	id := t.begin("machine.warmup")
	m.StartNode(sc.Warmup, sc.Measure, nil)
	m.Engine().RunUntil(sc.Warmup)
	t.end(id)
	id = t.begin("machine.measure")
	m.BeginWindow()
	m.Engine().RunUntil(sc.Warmup + sc.Measure)
	r := m.EndWindow(sc.Measure)
	t.end(id)
	return r
}

// dramTxn is one recorded DRAM transaction.
type dramTxn struct {
	cycle, addr uint64
	write       bool
}

// runRecorded runs m's cell with its DRAM stream recorded, reads its exact
// counters, and replays the stream into a fresh DRAM model (span
// mem.replay) to time the memory layer on its own.
func (t *tracer) runRecorded(m *machine.Machine, sc experiments.Scale) (*recorded, error) {
	cfg := m.Config()
	rec := &recorded{job: t.job, cycles: sc.Warmup + sc.Measure, channels: cfg.Mem.Channels}
	var txns []dramTxn
	m.SetTraceSink(func(ev machine.TraceEvent) {
		txns = append(txns, dramTxn{cycle: ev.Cycle, addr: ev.Addr, write: ev.Kind.IsWriteback()})
	})
	rec.res = t.runPhases(m, sc)
	rec.final = m.Metrics().Final(m.Engine().Now())
	rec.flow = m.Hierarchy().Flow()
	var logged uint64
	for _, n := range rec.res.AccessCounts {
		logged += n
	}
	if logged != uint64(len(txns)) {
		return nil, fmt.Errorf("DRAM trace holds %d transactions, the window's access breakdown %d", len(txns), logged)
	}
	id := t.begin("mem.replay")
	d := mem.New(cfg.Mem)
	for _, x := range txns {
		if x.write {
			d.Write(x.cycle, x.addr)
		} else {
			d.Read(x.cycle, x.addr)
		}
	}
	t.end(id)
	rec.txns = len(txns)
	rec.replayNs = t.spans[id].Dur()
	if d.Transactions() != uint64(len(txns)) {
		return nil, fmt.Errorf("DRAM replay performed %d of %d transactions", d.Transactions(), len(txns))
	}
	return rec, nil
}
