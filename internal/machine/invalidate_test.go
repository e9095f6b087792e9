package machine

import (
	"reflect"
	"testing"

	"sweeper/internal/core"
)

// insnCases builds one machine configuration per registered invalidation
// instruction, failing the suite if a newly registered instruction ships
// without a case here.
func insnCases(t *testing.T) map[string]Config {
	t.Helper()
	knobs := map[string]func(*Config){
		core.InsnCLSweep: func(c *Config) {},
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
// machine recycled through Reset must reproduce fresh-machine Results
// bit-identically.
func TestInvalidatePooledReset(t *testing.T) {
	checkPooledWalk(t, core.InsnNames(), insnCases(t), func(name string, r Results) {
		if r.Sweeper.SweptLines == 0 {
			t.Fatalf("%s: relinquish path never ran; instruction untested", name)
		}
	})
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
// for the instruction name: unknown names, the retired clflush, clwb and
// simf among them, must fail construction.
func TestInvalidateConfigValidation(t *testing.T) {
	for _, name := range []string{"clzap", "clflush", "clwb", "simf"} {
		cfg := quickCfg()
		cfg.Sweeper.RXSweep = true
		cfg.Sweeper.Insn = name
		if _, err := New(cfg); err == nil {
			t.Errorf("instruction %q: config accepted", name)
		}
	}
}
