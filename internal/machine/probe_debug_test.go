//go:build sweeperdebug

package machine_test

import (
	"fmt"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/obs"
	"sweeper/internal/scenario"
)

// TestProbesAcrossBuiltinScenarios runs a slice of every builtin scenario
// with the debug invariant probes compiled in. Any conservation or
// monotonicity violation panics through obs.Failf, failing the test; a clean
// pass means the ring, DRAM timing, cache and DDIO probes all held across
// the full configuration matrix (DMA/DDIO/Ideal-DDIO, Sweeper on/off, X-Mem,
// partitions).
func TestProbesAcrossBuiltinScenarios(t *testing.T) {
	if !obs.ProbesEnabled {
		t.Fatal("built with -tags sweeperdebug but ProbesEnabled is false")
	}
	const maxRunsPerScenario = 3
	for _, spec := range scenario.Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			runs, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) > maxRunsPerScenario {
				runs = runs[:maxRunsPerScenario]
			}
			for i, r := range runs {
				cfg := r.Config
				// Keep the matrix affordable: probes cost per-access
				// work, and correctness does not need many cores.
				if cfg.NetCores > 8 {
					cfg.NetCores = 8
				}
				if cfg.XMemCores > 2 {
					cfg.XMemCores = 2
				}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("run %d (%s): probe fired: %v",
								i, r.Variant.DisplayName(), p)
						}
					}()
					m.Run(40_000, 80_000)
				}()
			}
		})
	}
}

// TestProbeCatchesWayMaskOverflow proves the probes actually fire: a DDIO
// way mask wider than the LLC must panic under sweeperdebug.
func TestProbeCatchesWayMaskOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized way mask did not trip the probe")
		}
	}()
	cfg := machine.DefaultConfig()
	cfg.NetCores = 2
	cfg.NICWayMask = 1 << uint(cfg.Cache.LLCWays) // one past the last way
	m, err := machine.New(cfg)
	if err != nil {
		// Config validation rejecting it is also acceptable protection,
		// but the probe is expected to fire first during assembly.
		panic(fmt.Sprintf("config rejected: %v", err))
	}
	m.Run(10_000, 10_000)
}
