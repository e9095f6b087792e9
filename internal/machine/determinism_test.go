package machine

import (
	"reflect"
	"testing"

	"sweeper/internal/core"
	"sweeper/internal/nic"
)

// determinismCases are seven representative configurations (open loop,
// closed loop, Sweeper, DMA, Ideal-DDIO, collocation, fig10's spiky
// service), each a mutation of quickCfg, shared by the fresh-machine and
// pooled-machine determinism tests.
func determinismCases() map[string]func(*Config) {
	return map[string]func(*Config){
		"open-loop-ddio": func(c *Config) {},
		"sweeper": func(c *Config) {
			c.Sweeper = core.Config{RXSweep: true, IssueCyclesPerLine: 1}
		},
		"closed-loop": func(c *Config) {
			c.OfferedMrps = 0
			c.ClosedLoopDepth = 64
		},
		"dma": func(c *Config) {
			c.NICMode = nic.ModeDMA
		},
		"collocated-xmem": func(c *Config) {
			c.NetCores = 8
			c.XMemCores = 4
		},
		"ideal": func(c *Config) {
			c.NICMode = nic.ModeIdeal
		},
		"spiky-service": func(c *Config) {
			c.SpikeProb = 0.01
			c.SpikeMinCycles = 3_200
			c.SpikeMaxCycles = 320_000
		},
	}
}

// TestResultsBitIdenticalAcrossFreshMachines is the engine-rewrite safety
// net: two fresh machines built from the same Config must produce Results
// that are identical in every field — counters, derived floats and full
// latency CDFs — across the determinism cases. Any event-ordering change in
// the engine shows up here before it can perturb committed figures.
func TestResultsBitIdenticalAcrossFreshMachines(t *testing.T) {
	for name, mutate := range determinismCases() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg()
			mutate(&cfg)
			run := func() Results {
				return MustNew(cfg).Run(400_000, 300_000)
			}
			r1, r2 := run(), run()
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same Config diverged:\n  run1: %+v\n  run2: %+v", r1, r2)
			}
		})
	}
}
