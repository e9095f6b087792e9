package machine

import (
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
// machine recycled through Reset must reproduce fresh-machine Results
// bit-identically.
func TestArrivalPooledReset(t *testing.T) {
	checkPooledWalk(t, nic.ArrivalNames(), arrivalCases(t), nil)
}

// TestArrivalConfigValidation exercises the machine-level arrival plumbing
// errors: unknown processes, the retired mmpp among them, and the
// closed-loop/arrival conflict.
func TestArrivalConfigValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"unknown process": func(c *Config) { c.Arrival.Process = "nonesuch" },
		"removed mmpp":    func(c *Config) { c.Arrival.Process = "mmpp" },
		"closed loop + arrival": func(c *Config) {
			c.ClosedLoopDepth = 16
			c.Arrival = nic.ArrivalConfig{Process: nic.ArrivalPoisson}
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
