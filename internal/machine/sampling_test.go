package machine_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/scenario"
)

// Error-bound validation for the sampled-simulation mode (DESIGN.md §12):
// sampled estimates must land within their own reported 95% CI of a full
// detailed run, or within the QuickScale-equivalence floor — whichever is
// looser. The floor exists because a sampled run measures a different (and
// shorter) slice of the steady state than the full run: QuickScale itself,
// the repo's established reduced-fidelity reference, deviates from FullScale
// by up to 5.4% on these scenarios (throughput +3.3% on all three, AMAT
// +5.4% on l3fwd), so a 5.5% bound is "QuickScale-equivalent accuracy".
const sampledErrorFloor = 0.055

// Full-fidelity windows, mirroring experiments.FullScale (the committed
// results' scale). For sampled runs the warmup argument is a budget: the
// steady-state detector typically ends warm-up after a small fraction of it.
const (
	fullWarmup  = 12_000_000
	fullMeasure = 3_000_000
)

// sampledSeed pins the validation seed. If a future change shifts the
// simulation's steady state and this test trips, re-derive the goldens by
// comparing full and sampled runs by hand before touching the tolerance.
const sampledSeed = 12345

// baseScenarios is the builtin scenario matrix the bound is validated on:
// the three base machines behind every figure sweep.
var baseScenarios = []string{"kvs", "l3fwd", "collocation"}

func scenarioConfig(t *testing.T, name string) machine.Config {
	t.Helper()
	cfg := scenario.MustConfig(name, nil)
	cfg.Seed = sampledSeed
	return cfg
}

// withinBound asserts |sampled-full| <= max(reported CI95 half-width, floor).
func withinBound(t *testing.T, metric string, sampled, half, full float64) {
	t.Helper()
	diff := sampled - full
	if diff < 0 {
		diff = -diff
	}
	bound := half
	if f := sampledErrorFloor * full; f > bound {
		bound = f
	}
	if diff > bound {
		t.Errorf("%s: sampled %.3f vs full %.3f: |err| %.3f exceeds max(CI95 %.3f, %.1f%% floor %.3f)",
			metric, sampled, full, diff, half, 100*sampledErrorFloor, sampledErrorFloor*full)
	}
}

// TestSampledWithinFullRunErrorBound compares sampled runs (both modes)
// against full detailed runs at the committed-results scale, across the
// builtin scenario matrix.
func TestSampledWithinFullRunErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity reference runs are too slow for -short")
	}
	for _, name := range baseScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := scenarioConfig(t, name)
			full := machine.MustNew(cfg).Run(fullWarmup, fullMeasure)

			for _, mode := range []string{"fixed", "ci"} {
				scfg := cfg
				scfg.Sampling.Mode = mode
				r := machine.MustNew(scfg).Run(fullWarmup, fullMeasure)
				s := r.Sampled
				if s == nil {
					t.Fatalf("%s: sampled run returned no SamplingSummary", mode)
				}
				if s.Mode != mode {
					t.Errorf("%s: summary mode %q", mode, s.Mode)
				}
				if !s.WarmupDetected {
					t.Errorf("%s: steady-state detector never fired (warm-up ended at %d)",
						mode, s.WarmupEndCycle)
				}
				if s.MeasuredCycles != uint64(s.Intervals)*s.DetailedCycles {
					t.Errorf("%s: measured %d cycles, want %d intervals x %d",
						mode, s.MeasuredCycles, s.Intervals, s.DetailedCycles)
				}
				// The speedup lever: a sampled run must simulate a small
				// fraction of the full run's span.
				if s.SimulatedCycles >= (fullWarmup+fullMeasure)/2 {
					t.Errorf("%s: simulated %d cycles, not meaningfully below the full run's %d",
						mode, s.SimulatedCycles, uint64(fullWarmup+fullMeasure))
				}
				withinBound(t, mode+" throughput", s.Throughput.Mean, s.Throughput.HalfWidth, full.ThroughputMrps)
				withinBound(t, mode+" amat", s.AMAT.Mean, s.AMAT.HalfWidth, full.AMATCycles)
			}
		})
	}
}

// TestSampledTieredWithinErrorBound extends the error-bound contract to the
// hybrid-memory machine of the "tiers" scenario. This is the regression net
// for the fast-forward latency bug class: functional-mode reads must be
// stamped with the owning tier's unloaded latency, not flat DRAM latency — a
// flat stamp biases sampled AMAT low on tiered machines and breaches the
// bound here.
func TestSampledTieredWithinErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity reference runs are too slow for -short")
	}
	cfg := scenarioConfig(t, "tiers")
	cfg.Sweeper.RXSweep = true // exercise the simf relinquish path too
	// Two adjustments pin a comparable operating point. First, the
	// scenario's default offered rate saturates the hybrid machine (the
	// tier-1 device queue grows without bound), and an unstable system has
	// no steady state for interval sampling to estimate — back off to a
	// stable rate. Second, warm-fill installs differ by design between full
	// (legacy dirty fill) and sampled (content-aware install) runs; on a
	// DRAM machine the residual content difference is noise, but the tier's
	// 300-cycle reads amplify it past the bound. Cold-start both runs so
	// they warm from the same (empty) state.
	cfg.OfferedMrps = 5
	cfg.WarmLLC = false
	full := machine.MustNew(cfg).Run(fullWarmup, fullMeasure)
	if full.Tier1Accesses == 0 {
		t.Fatal("tiers scenario never touched tier 1; the bound would be vacuous")
	}

	scfg := cfg
	scfg.Sampling.Mode = "fixed"
	r := machine.MustNew(scfg).Run(fullWarmup, fullMeasure)
	s := r.Sampled
	if s == nil {
		t.Fatal("sampled run returned no SamplingSummary")
	}
	if r.Tier1Accesses == 0 {
		t.Fatal("sampled run never touched tier 1")
	}
	withinBound(t, "tiered throughput", s.Throughput.Mean, s.Throughput.HalfWidth, full.ThroughputMrps)
	withinBound(t, "tiered amat", s.AMAT.Mean, s.AMAT.HalfWidth, full.AMATCycles)
}

// TestSampledReproducesAfterReset: a sampled run is deterministic like any
// other — a second fresh machine and a pooled machine Reset to the same
// config both reproduce it bit for bit.
func TestSampledReproducesAfterReset(t *testing.T) {
	cfg := scenarioConfig(t, "kvs")
	cfg.Sampling.Mode = "fixed"

	m := machine.MustNew(cfg)
	want := m.Run(fullWarmup, fullMeasure)
	if want.Sampled == nil {
		t.Fatal("sampled run returned no SamplingSummary")
	}
	if got := machine.MustNew(cfg).Run(fullWarmup, fullMeasure); !reflect.DeepEqual(got, want) {
		t.Fatalf("sampled run diverged on a fresh machine:\n%+v\nvs\n%+v", want, got)
	}
	if err := m.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.Run(fullWarmup, fullMeasure); !reflect.DeepEqual(got, want) {
		t.Fatalf("sampled run diverged after Reset:\n%+v\nvs\n%+v", want, got)
	}
}

// TestSampledCIModeTightensOrCaps: adaptive mode keeps adding intervals until
// both primary CIs meet the target, or gives up at the cap — never neither.
func TestSampledCIModeTightensOrCaps(t *testing.T) {
	cfg := scenarioConfig(t, "kvs")
	cfg.Sampling.Mode = "ci"
	cfg.Sampling.MaxIntervals = 64
	cfg.Sampling.MaxRelCI = 0.05

	r := machine.MustNew(cfg).Run(fullWarmup, fullMeasure)
	s := r.Sampled
	if s == nil {
		t.Fatal("no SamplingSummary")
	}
	if s.Intervals < 4 {
		t.Fatalf("ci mode stopped after %d intervals; minimum is 4", s.Intervals)
	}
	if s.Intervals < cfg.Sampling.MaxIntervals {
		if rel := s.Throughput.RelHalfWidth(); rel > cfg.Sampling.MaxRelCI {
			t.Errorf("stopped early with throughput CI %.3f > target %.3f", rel, cfg.Sampling.MaxRelCI)
		}
		if rel := s.AMAT.RelHalfWidth(); rel > cfg.Sampling.MaxRelCI {
			t.Errorf("stopped early with AMAT CI %.3f > target %.3f", rel, cfg.Sampling.MaxRelCI)
		}
	}
}

// TestSamplingSmokeBuiltins is the cheap end-to-end smoke `make check` leans
// on: every base scenario runs sampled with tiny windows, produces sane
// results, phase-tags its observability series, and round-trips the sampling
// record through the JSON manifest.
func TestSamplingSmokeBuiltins(t *testing.T) {
	for _, name := range baseScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := scenarioConfig(t, name)
			cfg.Sampling = machine.SamplingConfig{
				Mode:               "fixed",
				Intervals:          2,
				DetailedCycles:     16_384,
				FastForwardCycles:  16_384,
				WarmupWindowCycles: 32_768,
				WarmupWindows:      2,
			}
			m := machine.MustNew(cfg)
			m.EnableSampling(4096)
			// The measure argument is unused in sampled mode (the interval
			// schedule replaces it) but must still validate.
			r := m.Run(500_000, 100_000)
			if r.Served == 0 {
				t.Fatal("sampled smoke run served nothing")
			}
			if r.Sampled == nil || r.Sampled.Intervals != 2 {
				t.Fatalf("unexpected sampling summary: %+v", r.Sampled)
			}

			series := m.ObsSeries()
			if len(series.Phases) != len(series.Cycles) {
				t.Fatalf("phase tags (%d) do not cover samples (%d)",
					len(series.Phases), len(series.Cycles))
			}
			seen := map[string]bool{}
			for _, p := range series.Phases {
				seen[p] = true
			}
			for _, want := range []string{"warmup-ff", "detailed", "fast-forward"} {
				if !seen[want] {
					t.Errorf("no sample tagged %q (saw %v)", want, seen)
				}
			}

			blob, err := json.Marshal(m.BuildManifest("smoke", r))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"Sampling"`, `"mode":"fixed"`, `"warmup_detected"`} {
				if !strings.Contains(string(blob), want) {
					t.Errorf("manifest JSON missing %s", want)
				}
			}
		})
	}
}
