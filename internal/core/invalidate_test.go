package core

import (
	"strings"
	"testing"
)

// TestInsnRegistry checks the four shipped instructions are registered
// under their names; the table itself is tested in package registry.
func TestInsnRegistry(t *testing.T) {
	for _, want := range []string{InsnCLSweep, InsnCLFlush, InsnCLWB, InsnSIMF} {
		reg, ok := LookupInsn(want)
		if !ok || reg.Name != want {
			t.Fatalf("instruction %q not registered", want)
		}
	}
}

// TestRegisterInsnRejectsBadRegistrations checks the hook check RegisterInsn
// adds on top of the table's name checks.
func TestRegisterInsnRejectsBadRegistrations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RegisterInsn accepted an instruction without hooks")
		}
	}()
	RegisterInsn(InsnRegistration{Name: "hookless"})
}

// TestInsnCounterConsistency is the closed-loop accounting property across
// every registered instruction: over a relinquish of L lines of which D are
// dirty, SweptLines advances by exactly L and the dirty lines land in exactly
// one of DroppedDirtyLines (clsweep) or WrittenBackLines (everything else) —
// never both, never more than D.
func TestInsnCounterConsistency(t *testing.T) {
	const base, size = uint64(4096), uint64(64 * 32) // 32 lines
	for _, name := range InsnNames() {
		t.Run(name, func(t *testing.T) {
			hw := &fakeHW{dirty: map[uint64]bool{}}
			var dirty uint64
			for i := uint64(0); i < 32; i += 2 { // half the lines dirty
				hw.dirty[base+i*64] = true
				dirty++
			}
			s := New(hw, Config{RXSweep: true, IssueCyclesPerLine: 1, Insn: name})
			s.Relinquish(0, 0, base, size)
			st := s.Stats()
			if st.Relinquishes != 1 || st.SweptLines != 32 {
				t.Fatalf("stats %+v: want 1 relinquish over 32 lines", st)
			}
			if st.DroppedDirtyLines+st.WrittenBackLines != dirty {
				t.Fatalf("stats %+v: %d dirty lines not conserved", st, dirty)
			}
			if name == InsnCLSweep {
				if st.WrittenBackLines != 0 || st.DroppedDirtyLines != dirty {
					t.Fatalf("clsweep stats %+v: want %d dropped, 0 written back", st, dirty)
				}
			} else {
				if st.DroppedDirtyLines != 0 || st.WrittenBackLines != dirty {
					t.Fatalf("%s stats %+v: want %d written back, 0 dropped", name, st, dirty)
				}
			}
			// Relinquishing the same (now clean or absent) range again must
			// advance only the op counters: the dirty work is done.
			s.Relinquish(100, 0, base, size)
			st2 := s.Stats()
			if st2.SweptLines != 64 || st2.DroppedDirtyLines != st.DroppedDirtyLines ||
				st2.WrittenBackLines != st.WrittenBackLines {
				t.Fatalf("clean re-relinquish moved dirty counters: %+v -> %+v", st, st2)
			}
		})
	}
}

// TestInsnIssueLatency pins the core-visible cost models: one cycle per line
// for the per-line instructions, setup + per-batch cost for simf.
func TestInsnIssueLatency(t *testing.T) {
	const base, size = uint64(0), uint64(64 * 100) // 100 lines
	perLine := Config{RXSweep: true, IssueCyclesPerLine: 3}
	for _, name := range []string{InsnCLSweep, InsnCLFlush, InsnCLWB} {
		cfg := perLine
		cfg.Insn = name
		s := New(&fakeHW{}, cfg)
		if done := s.Relinquish(1000, 0, base, size); done != 1000+300 {
			t.Errorf("%s: done = %d, want 1300", name, done)
		}
	}

	// simf: ceil(100/32) = 4 batches at 10 cycles each, plus 25 setup.
	cfg := Config{RXSweep: true, IssueCyclesPerLine: 3, Insn: InsnSIMF,
		SIMFBatchLines: 32, SIMFBatchCycles: 10, SIMFSetupCycles: 25}
	s := New(&fakeHW{}, cfg)
	if done := s.Relinquish(1000, 0, base, size); done != 1000+25+4*10 {
		t.Errorf("simf: done = %d, want %d", done, 1000+25+4*10)
	}

	// simf defaults: 64-line batches at 16 cycles, no setup.
	s = New(&fakeHW{}, Config{RXSweep: true, Insn: InsnSIMF})
	if done := s.Relinquish(0, 0, base, size); done != 2*16 {
		t.Errorf("simf defaults: done = %d, want 32", done)
	}
}

// TestInsnConfigValidate is the table-driven knob validation for the
// instruction family (mirrors the cluster-knob validation tests).
func TestInsnConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"zero value defaults to clsweep", Config{}, ""},
		{"explicit clsweep", Config{Insn: InsnCLSweep}, ""},
		{"simf with knobs", Config{Insn: InsnSIMF, SIMFBatchLines: 8, SIMFSetupCycles: 40}, ""},
		{"unknown instruction", Config{Insn: "clzap"}, "unknown invalidation instruction"},
		{"negative batch lines", Config{Insn: InsnSIMF, SIMFBatchLines: -1}, "batch lines"},
		{"negative batch cycles", Config{Insn: InsnSIMF, SIMFBatchCycles: -4}, "batch cycles"},
		{"negative setup cycles", Config{Insn: InsnSIMF, SIMFSetupCycles: -1}, "setup cycles"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
