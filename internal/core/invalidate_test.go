package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestInsnRegistry checks clsweep is the one shipped instruction, registered
// under its name; the table itself is tested in package registry.
func TestInsnRegistry(t *testing.T) {
	reg, ok := LookupInsn(InsnCLSweep)
	if !ok || reg.Name != InsnCLSweep {
		t.Fatalf("instruction %q not registered", InsnCLSweep)
	}
	if got := InsnNames(); !reflect.DeepEqual(got, []string{InsnCLSweep}) {
		t.Fatalf("InsnNames() = %v, want [%s]", got, InsnCLSweep)
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
// dirty, SweptLines advances by exactly L and every dirty line is dropped
// without writeback, never counted twice.
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
			s := New(hw, Config{RXSweep: true, Insn: name})
			s.Relinquish(0, 0, base, size)
			st := s.Stats()
			if st.Relinquishes != 1 || st.SweptLines != 32 {
				t.Fatalf("stats %+v: want 1 relinquish over 32 lines", st)
			}
			if st.WrittenBackLines != 0 || st.DroppedDirtyLines != dirty {
				t.Fatalf("stats %+v: want %d dropped, 0 written back", st, dirty)
			}
			// Relinquishing the same (now absent) range again must
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

// TestInsnIssueLatency pins clsweep's core-visible cost model: one
// instruction per covered line, one cycle each.
func TestInsnIssueLatency(t *testing.T) {
	const base, size = uint64(0), uint64(64 * 100) // 100 lines
	s := New(&fakeHW{}, Config{RXSweep: true, Insn: InsnCLSweep})
	if done := s.Relinquish(1000, 0, base, size); done != 1000+100 {
		t.Errorf("clsweep: done = %d, want 1100", done)
	}
}

// TestInsnConfigValidate is the table-driven instruction validation. The
// retired clflush, clwb and simf names must fail like any unknown name.
func TestInsnConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"zero value defaults to clsweep", Config{}, ""},
		{"explicit clsweep", Config{Insn: InsnCLSweep}, ""},
		{"unknown instruction", Config{Insn: "clzap"}, "unknown invalidation instruction"},
		{"removed clflush", Config{Insn: "clflush"}, "unknown invalidation instruction"},
		{"removed clwb", Config{Insn: "clwb"}, "unknown invalidation instruction"},
		{"removed simf", Config{Insn: "simf"}, "unknown invalidation instruction"},
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
