package machine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sweeper/internal/nic"
)

// arrivalCases builds one machine configuration per registered arrival
// process (exercising the modulation knobs on top), failing the suite if a
// newly registered process has no case here: the pooled-reset contract
// below must cover every generator.
func arrivalCases(t *testing.T) map[string]Config {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "arrivals.bin")
	recs := make([]nic.TraceRecord, 4000)
	for i := range recs {
		recs[i] = nic.TraceRecord{
			Cycles: uint64(i * 130),
			Bytes:  64 + uint32(i%3)*700,
			Flow:   uint32(i % 24),
		}
	}
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.WriteTraceBinary(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	arrivals := map[string]nic.ArrivalConfig{
		nic.ArrivalPoisson: {
			DiurnalPeriodCycles: 200_000,
			DiurnalAmplitude:    0.4,
			Flows:               64,
		},
		nic.ArrivalMMPP: {
			Process:          nic.ArrivalMMPP,
			BurstRatio:       6,
			BurstDwellCycles: 40_000,
			Flows:            128,
		},
		nic.ArrivalTrace: {
			Process:   nic.ArrivalTrace,
			TracePath: tracePath,
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
// machine recycled through Reset — including across process switches — must
// reproduce fresh-machine Results bit-identically.
func TestArrivalPooledReset(t *testing.T) {
	cases := arrivalCases(t)
	fresh := map[string]Results{}
	for name, cfg := range cases {
		r := MustNew(cfg).Run(300_000, 250_000)
		if r.Offered == 0 {
			t.Fatalf("%s: no offered load; generator never ran", name)
		}
		fresh[name] = r
	}

	// One machine walks every process in registry order, then repeats the
	// walk: both generator reuse (same process) and generator replacement
	// (process switch) paths must stay bit-identical.
	names := nic.ArrivalNames()
	if len(names) == 0 {
		t.Fatal("no registered arrival processes")
	}
	m := MustNew(cases[names[0]])
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			if !(pass == 0 && i == 0) {
				if err := m.Reset(cases[name]); err != nil {
					t.Fatalf("pass %d: Reset to %s: %v", pass, name, err)
				}
			}
			if got := m.Run(300_000, 250_000); !reflect.DeepEqual(got, fresh[name]) {
				t.Fatalf("pass %d: pooled %s diverged from fresh:\n  fresh:  %+v\n  pooled: %+v",
					pass, name, fresh[name], got)
			}
		}
	}
}

// TestArrivalConfigValidation exercises the machine-level arrival plumbing
// errors: unknown processes, bad knobs, missing trace files, and the
// closed-loop/arrival conflict.
func TestArrivalConfigValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"unknown process": func(c *Config) { c.Arrival.Process = "nonesuch" },
		"burst ratio":     func(c *Config) { c.Arrival = nic.ArrivalConfig{Process: nic.ArrivalMMPP, BurstRatio: 0.5} },
		"amplitude range": func(c *Config) { c.Arrival.DiurnalAmplitude = 1.5 },
		"amp no period":   func(c *Config) { c.Arrival.DiurnalAmplitude = 0.2 },
		"negative flows":  func(c *Config) { c.Arrival.Flows = -1 },
		"trace no path":   func(c *Config) { c.Arrival.Process = nic.ArrivalTrace },
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

	// A trace path that validates statically but fails to open must
	// surface at construction.
	cfg := quickCfg()
	cfg.Arrival = nic.ArrivalConfig{Process: nic.ArrivalTrace, TracePath: filepath.Join(t.TempDir(), "gone.bin")}
	if _, err := New(cfg); err == nil {
		t.Error("missing trace file accepted at construction")
	}
}
