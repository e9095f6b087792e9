package core

import (
	"testing"
	"testing/quick"
)

// fakeHW records sweep operations and reports dirtiness per a scripted set.
type fakeHW struct {
	swept []uint64
	dirty map[uint64]bool
}

func (h *fakeHW) Sweep(now uint64, owner int, a uint64) bool {
	h.swept = append(h.swept, a)
	if h.dirty[a] {
		delete(h.dirty, a)
		return true
	}
	return false
}

func TestRelinquishSweepsEveryLine(t *testing.T) {
	hw := &fakeHW{dirty: map[uint64]bool{}}
	s := New(hw, Config{RXSweep: true})
	done := s.Relinquish(100, 0, 4096, 1024)
	if len(hw.swept) != 16 {
		t.Fatalf("swept %d lines, want 16", len(hw.swept))
	}
	for i, a := range hw.swept {
		if a != 4096+uint64(i)*64 {
			t.Fatalf("line %d swept at %#x", i, a)
		}
	}
	if done != 100+16 {
		t.Fatalf("issue cost: done = %d, want 116", done)
	}
}

func TestRelinquishUnalignedRange(t *testing.T) {
	hw := &fakeHW{}
	s := New(hw, Config{RXSweep: true})
	// [100, 260) covers lines 64,128,192,256.
	s.Relinquish(0, 0, 100, 160)
	if len(hw.swept) != 4 || hw.swept[0] != 64 || hw.swept[3] != 256 {
		t.Fatalf("unaligned sweep lines: %v", hw.swept)
	}
}

func TestRelinquishDisabledIsFreeNoOp(t *testing.T) {
	hw := &fakeHW{}
	s := New(hw, Config{RXSweep: false})
	done := s.Relinquish(50, 0, 0, 4096)
	if done != 50 {
		t.Fatalf("disabled relinquish cost cycles: %d", done)
	}
	if len(hw.swept) != 0 {
		t.Fatal("disabled relinquish swept lines")
	}
	if s.Stats().Relinquishes != 0 {
		t.Fatal("disabled relinquish counted")
	}
}

func TestRelinquishZeroSize(t *testing.T) {
	hw := &fakeHW{}
	s := New(hw, Config{RXSweep: true})
	if done := s.Relinquish(10, 0, 64, 0); done != 10 {
		t.Fatal("zero-size relinquish must be free")
	}
}

func TestDroppedDirtyAccounting(t *testing.T) {
	hw := &fakeHW{dirty: map[uint64]bool{0: true, 64: true}}
	s := New(hw, Config{RXSweep: true})
	s.Relinquish(0, 0, 0, 256) // 4 lines, 2 dirty
	st := s.Stats()
	if st.SweptLines != 4 || st.DroppedDirtyLines != 2 || st.Relinquishes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNICSweepRequiresTXEnable(t *testing.T) {
	hw := &fakeHW{}
	s := New(hw, Config{RXSweep: true, TXSweep: false})
	s.NICSweep(0, 0, 0, 1024)
	if len(hw.swept) != 0 {
		t.Fatal("TX sweep ran while disabled")
	}
	if s.TXEnabled() {
		t.Fatal("TXEnabled must be false")
	}

	s = New(hw, Config{TXSweep: true})
	s.NICSweep(0, 0, 0, 1024)
	if len(hw.swept) != 16 {
		t.Fatalf("TX sweep swept %d lines", len(hw.swept))
	}
	if s.Stats().NICSweeps != 1 {
		t.Fatal("NIC sweep not counted")
	}
}

func TestRXEnabledAccessor(t *testing.T) {
	s := New(&fakeHW{}, Config{RXSweep: true})
	if !s.RXEnabled() || s.TXEnabled() {
		t.Fatal("accessors")
	}
	if s.Config() != (Config{RXSweep: true}) {
		t.Fatal("config passthrough")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg != (Config{RXSweep: true}) {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestUseAfterRelinquishSanitizer(t *testing.T) {
	hw := &fakeHW{}
	s := New(hw, Config{RXSweep: true, DebugUseAfterRelinquish: true})
	s.Relinquish(0, 0, 0, 128)
	if !s.CheckRead(64) {
		t.Fatal("read of relinquished line not flagged")
	}
	if len(s.Violations()) != 1 || s.Violations()[0] != 64 {
		t.Fatalf("violations = %v", s.Violations())
	}
	// After the NIC overwrites the line, reading is legal again.
	s.NoteOverwrite(64)
	if s.CheckRead(64) {
		t.Fatal("read after overwrite flagged")
	}
	// Line 0 is still relinquished.
	if !s.CheckRead(0) {
		t.Fatal("other line lost its relinquished state")
	}
}

func TestSanitizerDisabledByDefault(t *testing.T) {
	s := New(&fakeHW{}, Config{RXSweep: true})
	s.Relinquish(0, 0, 0, 128)
	if s.CheckRead(0) {
		t.Fatal("sanitizer active without debug flag")
	}
	s.NoteOverwrite(0) // must not panic
}

func TestNilHardwarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, Config{})
}

func TestStringer(t *testing.T) {
	s := New(&fakeHW{}, Config{RXSweep: true})
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: Relinquish sweeps exactly the line-aligned cover of
// [buf, buf+size).
func TestRelinquishCoverageProperty(t *testing.T) {
	f := func(bufRaw uint32, sizeRaw uint16) bool {
		buf := uint64(bufRaw)
		size := uint64(sizeRaw)
		if size == 0 {
			return true
		}
		hw := &fakeHW{}
		s := New(hw, Config{RXSweep: true})
		s.Relinquish(0, 0, buf, size)
		first := buf &^ uint64(63)
		last := (buf + size - 1) &^ uint64(63)
		want := int((last-first)/64) + 1
		if len(hw.swept) != want {
			return false
		}
		return hw.swept[0] == first && hw.swept[len(hw.swept)-1] == last
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
