package machine

import (
	"reflect"
	"testing"

	"sweeper/internal/addr"
	"sweeper/internal/core"
	"sweeper/internal/mem"
)

// insnCases builds one machine configuration per registered invalidation
// instruction (half of them on a hybrid memory, so the tier datapath rides
// the same determinism contracts), failing the suite if a newly registered
// instruction ships without a case here.
func insnCases(t *testing.T) map[string]Config {
	t.Helper()
	tiered := mem.DefaultTierConfig(mem.TierHotPage)
	tiered.DRAMBytes = 1 << 20
	static := mem.DefaultTierConfig(mem.TierStatic)
	static.DRAMBytes = 4 << 20

	knobs := map[string]func(*Config){
		core.InsnCLSweep: func(c *Config) {},
		core.InsnCLFlush: func(c *Config) { c.MemTier = static },
		core.InsnCLWB:    func(c *Config) {},
		core.InsnSIMF: func(c *Config) {
			c.MemTier = tiered
			c.Sweeper.SIMFBatchLines = 16
			c.Sweeper.SIMFSetupCycles = 20
		},
	}
	cases := map[string]Config{}
	for _, name := range core.InsnNames() {
		mutate, ok := knobs[name]
		if !ok {
			t.Errorf("registered instruction %q has no machine determinism case; add one here", name)
			continue
		}
		cfg := quickCfg()
		cfg.Sweeper.RXSweep = true
		cfg.Sweeper.Insn = name
		mutate(&cfg)
		cases[name] = cfg
	}
	return cases
}

// TestInvalidatePooledReset checks the pool/Reset contract per instruction: a
// machine recycled through Reset — including across instruction switches and
// tiering on/off transitions — must reproduce fresh-machine Results
// bit-identically.
func TestInvalidatePooledReset(t *testing.T) {
	cases := insnCases(t)
	fresh := map[string]Results{}
	for name, cfg := range cases {
		r := MustNew(cfg).Run(300_000, 250_000)
		if r.Offered == 0 {
			t.Fatalf("%s: no offered load; generator never ran", name)
		}
		if r.Sweeper.SweptLines == 0 {
			t.Fatalf("%s: relinquish path never ran; instruction untested", name)
		}
		fresh[name] = r
	}

	// One machine walks every instruction in registry order, then repeats
	// the walk: instruction switches and MemTier toggles (the cases mix
	// DRAM-only and hybrid configs) must leave no residue.
	names := core.InsnNames()
	if len(names) == 0 {
		t.Fatal("no registered invalidation instructions")
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

// TestDefaultInsnMatchesExplicitCLSweep locks the backward-compatibility
// contract behind the committed goldens: an empty Insn and an explicit
// "clsweep" must be the same machine, bit for bit.
func TestDefaultInsnMatchesExplicitCLSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.Sweeper.RXSweep = true
	want := MustNew(cfg).Run(300_000, 250_000)
	cfg.Sweeper.Insn = core.InsnCLSweep
	if got := MustNew(cfg).Run(300_000, 250_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit clsweep diverged from default:\n  default: %+v\n  clsweep: %+v", want, got)
	}
	if want.Sweeper.WrittenBackLines != 0 {
		t.Fatalf("clsweep wrote back %d lines", want.Sweeper.WrittenBackLines)
	}
}

// TestInvalidateConfigValidation exercises the machine-level plumbing errors
// for the instruction and tier knobs: unknown names, contradictory tier
// splits, and impossible device parameters must fail construction.
func TestInvalidateConfigValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"unknown instruction": func(c *Config) { c.Sweeper.Insn = "clzap" },
		"negative simf batch": func(c *Config) {
			c.Sweeper.Insn = core.InsnSIMF
			c.Sweeper.SIMFBatchLines = -1
		},
		"negative simf setup": func(c *Config) {
			c.Sweeper.Insn = core.InsnSIMF
			c.Sweeper.SIMFSetupCycles = -8
		},
		"unknown tier policy": func(c *Config) {
			c.MemTier = mem.DefaultTierConfig("warm")
		},
		"tier split past address space": func(c *Config) {
			c.MemTier = mem.DefaultTierConfig(mem.TierStatic)
			c.MemTier.DRAMBytes = addr.MaxLocalAddr + 1
		},
		"tier zero bandwidth": func(c *Config) {
			c.MemTier = mem.DefaultTierConfig(mem.TierStatic)
			c.MemTier.BandwidthGBps = 0
		},
		"tier zero write latency": func(c *Config) {
			c.MemTier = mem.DefaultTierConfig(mem.TierStatic)
			c.MemTier.WriteLatency = 0
		},
		"hotpage epoch too short": func(c *Config) {
			c.MemTier = mem.DefaultTierConfig(mem.TierHotPage)
			c.MemTier.HotPageEpochCycles = 16
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
