package machine

import (
	"math"
	"testing"

	"sweeper/internal/nic"
)

// arrivalCases builds one machine configuration per registered arrival
// process, failing the suite if a newly registered process has no case
// here: the pooled-reset contract below must cover every generator.
func arrivalCases(t *testing.T) map[string]Config {
	t.Helper()
	arrivals := map[string]nic.ArrivalConfig{
		nic.ArrivalPoisson: {},
		nic.ArrivalMMPP: {
			Process:          nic.ArrivalMMPP,
			BurstRatio:       6,
			BurstDwellCycles: 40_000,
		},
	}
	cases := map[string]Config{}
	for _, name := range nic.ArrivalNames() {
		acfg, ok := arrivals[name]
		if !ok {
			t.Errorf("registered arrival process %q has no machine determinism case; add one here", name)
			continue
		}
		cfg := quickCfg()
		cfg.Arrival = acfg
		cases[name] = cfg
	}
	return cases
}

// TestArrivalPooledReset checks the pool/Reset contract per process: a
// machine recycled through Reset — including across process switches, which
// replace the generator — must reproduce fresh-machine Results
// bit-identically.
func TestArrivalPooledReset(t *testing.T) {
	checkPooledWalk(t, nic.ArrivalNames(), arrivalCases(t), nil)
}

// TestArrivalConfigValidation exercises the machine-level arrival plumbing
// errors: unknown processes, bad burst ratios, MMPP shapes whose burst-state
// gap outruns the dwell (which would spin the gap draw), and the
// closed-loop/arrival conflict.
func TestArrivalConfigValidation(t *testing.T) {
	mmpp := func(ratio float64) func(*Config) {
		return func(c *Config) { c.Arrival = nic.ArrivalConfig{Process: nic.ArrivalMMPP, BurstRatio: ratio} }
	}
	bad := map[string]func(*Config){
		"unknown process":   func(c *Config) { c.Arrival.Process = "nonesuch" },
		"burst ratio":       mmpp(0.5),
		"NaN burst ratio":   mmpp(math.NaN()),
		"Inf burst ratio":   mmpp(math.Inf(1)),
		"1e308 burst ratio": mmpp(1e308),
		"mmpp at 1e-300 Mrps": func(c *Config) {
			c.OfferedMrps = 1e-300
			c.Arrival = nic.ArrivalConfig{Process: nic.ArrivalMMPP}
		},
		"closed loop + arrival": func(c *Config) {
			c.ClosedLoopDepth = 16
			c.Arrival = nic.ArrivalConfig{Process: nic.ArrivalMMPP}
		},
	}
	for name, mutate := range bad {
		cfg := quickCfg()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}
