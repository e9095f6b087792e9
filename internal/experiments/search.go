// Package experiments reproduces every table and figure of the paper's
// evaluation: the configuration sweeps, the peak-throughput search under the
// Appendix's SLO (p99 end-to-end latency ≤ 100x the workload's mean
// unloaded service time), the closed-loop deep-queue studies, the
// collocation Pareto scans, and text/CSV rendering of the results.
package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"

	"sweeper/internal/machine"
)

// Scale sets the simulation effort. Full scale drives cmd/experiments;
// Quick scale keeps `go test -bench` runs tractable (shorter windows and a
// coarser search — shapes hold, absolute numbers wobble a little).
type Scale struct {
	// Warmup and Measure are the per-run window lengths in cycles.
	Warmup  uint64
	Measure uint64
	// SearchIters bounds the bisection refinement of the peak search.
	SearchIters int
	// Parallelism caps concurrently simulated machines. Zero defers to
	// the SWEEPER_WORKERS environment variable, then to GOMAXPROCS.
	Parallelism int
	// Shards is kept only so perfbench/unit.go compiles; nothing in this
	// package reads it, and machine.Config.Validate rejects non-zero.
	Shards int
}

// FullScale is the fidelity used for the committed experiment results.
func FullScale() Scale {
	return Scale{Warmup: 12_000_000, Measure: 3_000_000, SearchIters: 6}
}

// QuickScale trades precision for speed (benchmarks, smoke runs, and the
// committed results regenerated on small machines).
func QuickScale() Scale {
	return Scale{Warmup: 5_000_000, Measure: 2_000_000, SearchIters: 4}
}

func (s Scale) workers() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	if v := os.Getenv("SWEEPER_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SLOMultiple is the paper's latency target: p99 ≤ 100x mean unloaded
// service time (Appendix).
const SLOMultiple = 100

// PeakResult is the outcome of a peak-throughput search.
type PeakResult struct {
	// PeakMrps is the highest offered load the search's rule accepted.
	PeakMrps float64
	// At holds the measured results at that load.
	At machine.Results
	// SLOCycles is the calibrated p99 target.
	SLOCycles uint64
	// ServiceCycles is the calibrated mean unloaded service time.
	ServiceCycles float64
}

// pool recycles machines across the many probes of a figure sweep: a peak
// search runs a calibration and one probe per rate it tries (six probes in
// perfbench's QuickScale kvs-peak search), and a fresh Table I KVS machine
// allocates about 17MB. Machine.Reset guarantees a recycled
// machine runs bit-identically to a fresh one, so pooling is invisible to
// the committed results.
var pool = machine.NewPool(0)

// runKey identifies one simulation: runs are deterministic in the complete
// configuration (machine.Config is comparable by design) and the windows.
type runKey struct {
	cfg             machine.Config
	warmup, measure uint64
}

type runEntry struct {
	once sync.Once
	r    machine.Results
}

var (
	memoMu sync.Mutex
	memo   = map[runKey]*runEntry{}
)

// runOnce is the harness's only way to simulate: it runs cfg for the given
// windows on a pooled machine, once per process per distinct key, and
// replays the memoized Results on every later call. A repeated search (the
// figures share cells, and a search re-probes a rate after shrinking) thus
// costs nothing. The Results are shared by every caller, including the
// DRAMLatCDF backing array, so they are read-only.
func runOnce(cfg machine.Config, warmup, measure uint64) machine.Results {
	key := runKey{cfg: cfg, warmup: warmup, measure: measure}
	memoMu.Lock()
	e := memo[key]
	if e == nil {
		e = &runEntry{}
		memo[key] = e
	}
	memoMu.Unlock()
	e.once.Do(func() {
		m := pool.MustGet(cfg)
		e.r = m.Run(warmup, measure)
		pool.Put(m)
	})
	return e.r
}

// Calibrate measures the workload's mean unloaded service time for cfg by
// running it at a trickle load for half the warm-up, returning the service
// time and the derived SLO target. Within a figure run the many sweep points
// that share a base configuration calibrate once, through runOnce's memo.
func Calibrate(cfg machine.Config, sc Scale) (service float64, slo uint64) {
	cal := cfg
	cal.ClosedLoopDepth = 0
	cal.OfferedMrps = 0.05 * float64(cfg.NetCores) // ~1/20 of a core each
	service = runOnce(cal, sc.Warmup/2, sc.Measure).AvgServiceCycles
	if service <= 0 {
		service = 1
	}
	return service, uint64(service * SLOMultiple)
}

// rule is a peak search's acceptance rule: the thresholds a probe's
// Results must meet for the search to accept its offered rate.
type rule struct {
	// sloP99 bounds the p99 request latency by the calibrated SLO.
	sloP99 bool
	// maxDropRate bounds the share of arrivals dropped at full rings.
	maxDropRate float64
	// minServed is the share of the offered rate a probe must serve: the
	// system has to keep up with the load, not just survive the window on
	// deep buffers.
	minServed float64
}

var (
	// sloRule is the Appendix's criterion. Its drop bound reflects that
	// datacenter drop rates near 1% are prohibitive (§VI-F) and that a
	// healthy run drops essentially nothing.
	sloRule = rule{sloP99: true, maxDropRate: 1e-3, minServed: 0.95}
	// dropFreeRule is the §VI-F criterion: zero drops and a stable system.
	// The Appendix exempts the spiky-workload study from the p99 SLO.
	dropFreeRule = rule{minServed: 0.95}
)

// accepts reports whether a probe's Results at the offered rate meet the
// rule under the calibrated SLO.
func (ru rule) accepts(r machine.Results, offered float64, slo uint64) bool {
	return (!ru.sloP99 || r.ReqLatP99 <= slo) &&
		r.DropRate <= ru.maxDropRate &&
		r.ThroughputMrps >= ru.minServed*offered
}

// searchPeak finds the highest offered load whose probe the rule accepts,
// via exponential expansion followed by bisection from an optimistic
// capacity estimate. No probe exceeds one arrival per cycle, the highest
// open-loop rate machine.Config.Validate accepts.
func searchPeak(cfg machine.Config, sc Scale, ru rule) PeakResult {
	service, slo := Calibrate(cfg, sc)
	res := PeakResult{SLOCycles: slo, ServiceCycles: service}

	probe := func(rate float64) (machine.Results, bool) {
		c := cfg
		c.ClosedLoopDepth = 0
		c.OfferedMrps = rate
		r := runOnce(c, sc.Warmup, sc.Measure)
		return r, ru.accepts(r, rate, slo)
	}

	maxMrps := machine.FreqHz / 1e6
	// The estimate assumes every core serves at its unloaded service time;
	// the search expands or shrinks from a quarter of that.
	lo := float64(cfg.NetCores) * machine.FreqHz / service / 1e6 * 0.25
	lo = math.Min(math.Max(lo, 0.5), maxMrps)
	r, okLo := probe(lo)
	for !okLo {
		lo /= 2
		if lo < 0.25 {
			// Even a trickle violates the rule; report zero peak.
			res.PeakMrps = 0
			res.At = r
			return res
		}
		r, okLo = probe(lo)
	}
	best, bestRate := r, lo

	hi := math.Min(lo*2, maxMrps)
	for i := 0; i < 12 && hi > lo; i++ {
		r, feas := probe(hi)
		if !feas {
			break
		}
		best, bestRate = r, hi
		lo = hi
		hi = math.Min(hi*2, maxMrps)
	}

	for i := 0; i < sc.SearchIters; i++ {
		mid := (lo + hi) / 2
		if hi-lo < 0.25 || mid <= 0 {
			break
		}
		r, feas := probe(mid)
		if feas {
			best, bestRate = r, mid
			lo = mid
		} else {
			hi = mid
		}
	}

	res.PeakMrps = bestRate
	res.At = best
	return res
}

// PeakThroughput finds cfg's peak sustainable load under the paper's SLO.
func PeakThroughput(cfg machine.Config, sc Scale) PeakResult {
	return searchPeak(cfg, sc, sloRule)
}

// parallelFor runs fn(i) for i in [0,n) on the scale's worker budget.
func parallelFor(n int, sc Scale, fn func(i int)) {
	workers := sc.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ratio formats a fold-change, guarding against zero denominators.
func ratio(num, den float64) string {
	if den == 0 || math.IsNaN(num/den) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", num/den)
}
