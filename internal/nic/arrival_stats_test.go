package nic

import (
	"math"
	"testing"

	"sweeper/internal/sim"
)

// This file locks the statistical properties of every registered arrival
// process: mean rates within confidence bounds and burstiness. The umbrella
// test walks the registry, so a newly registered process fails until a
// property test is added for it.

type arrivalRec struct {
	now  uint64
	core int
	size uint64
	tag  uint64
}

// collectArrivals runs spec's generator standalone until horizon and
// returns every injected arrival.
func collectArrivals(t *testing.T, spec ArrivalSpec, horizon uint64) []arrivalRec {
	t.Helper()
	eng := sim.NewEngine()
	var recs []arrivalRec
	gen, err := NewArrival(eng, spec, func(now uint64, core int, size uint64, tag uint64) {
		recs = append(recs, arrivalRec{now, core, size, tag})
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	eng.RunUntil(horizon)
	if got := gen.Offered(); got != uint64(len(recs)) {
		t.Fatalf("Offered() = %d, injected %d", got, len(recs))
	}
	return recs
}

// checkMeanRate asserts the arrival count over the horizon is within a
// ±4σ Poisson band around horizon/meanGap.
func checkMeanRate(t *testing.T, recs []arrivalRec, horizon uint64, meanGap float64) {
	t.Helper()
	want := float64(horizon) / meanGap
	band := 4 * math.Sqrt(want)
	if got := float64(len(recs)); math.Abs(got-want) > band {
		t.Errorf("arrivals = %.0f, want %.0f ± %.0f", got, want, band)
	}
}

// burstIndex is the windowed index of dispersion (variance/mean of
// per-window arrival counts): ~1 for Poisson, > 1 for bursty processes.
func burstIndex(recs []arrivalRec, horizon, window uint64) float64 {
	n := int(horizon / window)
	counts := make([]float64, n)
	for _, r := range recs {
		if w := int(r.now / window); w < n {
			counts[w]++
		}
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(n)
	var varc float64
	for _, c := range counts {
		varc += (c - mean) * (c - mean)
	}
	varc /= float64(n)
	if mean == 0 {
		return 0
	}
	return varc / mean
}

// TestArrivalRegistryStatistics walks the registry: every registered
// process must have a property test here, so a new generator cannot ship
// without one.
func TestArrivalRegistryStatistics(t *testing.T) {
	cases := map[string]func(t *testing.T){
		ArrivalPoisson: testPoissonStats,
	}
	for _, name := range ArrivalNames() {
		fn, ok := cases[name]
		if !ok {
			t.Errorf("registered arrival process %q has no statistical property test; add one to the cases map", name)
			continue
		}
		t.Run(name, fn)
	}
}

func testPoissonStats(t *testing.T) {
	const (
		meanGap = 100.0
		horizon = 2_000_000
	)
	recs := collectArrivals(t, ArrivalSpec{Cores: 4, Size: 64, MeanGap: meanGap, Seed: 11}, horizon)
	checkMeanRate(t, recs, horizon, meanGap)
	// A Poisson stream is not bursty at any window scale.
	if bi := burstIndex(recs, horizon, 10_000); bi > 1.5 {
		t.Errorf("poisson burst index = %.2f, want ~1", bi)
	}
}

// TestArrivalReplayDeterminism locks each registered process's exact
// arrival sequence across a rebuild and across Reset with the same spec.
func TestArrivalReplayDeterminism(t *testing.T) {
	specs := map[string]ArrivalSpec{
		ArrivalPoisson: {Cores: 4, Size: 64, MeanGap: 120, Seed: 21},
	}
	for _, name := range ArrivalNames() {
		spec, ok := specs[name]
		if !ok {
			t.Errorf("registered arrival process %q has no determinism spec; add one here", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			const horizon = 300_000
			a := collectArrivals(t, spec, horizon)
			b := collectArrivals(t, spec, horizon)
			if len(a) == 0 {
				t.Fatal("no arrivals")
			}
			if len(a) != len(b) {
				t.Fatalf("rebuild: %d vs %d arrivals", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rebuild diverges at arrival %d: %+v vs %+v", i, a[i], b[i])
				}
			}

			// Reset must restore the just-constructed sequence: run a
			// partial window, then reset engine and generator (the pooled
			// machine.Reset sequence) and replay in full.
			eng := sim.NewEngine()
			var c []arrivalRec
			gen, err := NewArrival(eng, spec, func(now uint64, core int, size uint64, tag uint64) {
				c = append(c, arrivalRec{now, core, size, tag})
			})
			if err != nil {
				t.Fatal(err)
			}
			gen.Start()
			eng.RunUntil(horizon / 2)
			eng.Reset()
			if err := gen.Reset(spec); err != nil {
				t.Fatal(err)
			}
			c = nil
			gen.Start()
			eng.RunUntil(horizon)
			if len(a) != len(c) {
				t.Fatalf("reset: %d vs %d arrivals", len(a), len(c))
			}
			for i := range a {
				if a[i] != c[i] {
					t.Fatalf("reset diverges at arrival %d: %+v vs %+v", i, a[i], c[i])
				}
			}
		})
	}
}
