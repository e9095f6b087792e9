package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestScaledRemovesMeterTimeAndRescales(t *testing.T) {
	// 10 s of wall time, 0.2 s of it the meter's, with passes at twice
	// the reference time: the host ran at half the reference speed.
	if got := scaled(10, 0.2, 2*meterRefNs); math.Abs(got-4.9) > 1e-12 {
		t.Errorf("scaled = %v, want 4.9", got)
	}
	if got := scaled(3, 0, 0); got != 3 {
		t.Errorf("without a meter reading scaled = %v, want the raw 3", got)
	}
	u := unitReport{SetupS: 1, WallS: 10, MeterS: 0.5, MeterWarmNs: meterRefNs / 2}
	if got := u.scaledWall(); math.Abs(got-19) > 1e-12 {
		t.Errorf("a unit too short for a slice falls back to the warm-up reading: %v, want 19", got)
	}
	if got := u.scaledSetup(); math.Abs(got-2) > 1e-12 {
		t.Errorf("scaledSetup = %v, want 2 (set-up uses the warm-up reading)", got)
	}
	u.MeterNs = meterRefNs
	if got := u.scaledWall(); math.Abs(got-9.5) > 1e-12 {
		t.Errorf("scaledWall = %v, want 9.5", got)
	}
	// A traced unit whose last 2 s were traced-only work: the meter's
	// time is taken in proportion, 0.4 s of the common 8 s.
	u.CommonWallS = 8
	if got := u.scaledCommonWall(); math.Abs(got-7.6) > 1e-12 {
		t.Errorf("scaledCommonWall = %v, want 7.6", got)
	}
}

func TestMeterTimesARefilledPass(t *testing.T) {
	m := newMeter()
	m.warm(20 * time.Millisecond)
	passNs, total := m.since(reading{})
	r := m.read()
	if r.slices < 2 || passNs <= 0 || float64(r.totalNs) < 2*passNs || total != time.Duration(r.totalNs) {
		t.Fatalf("after warm-up: %+v, median pass %v ns", r, passNs)
	}
	if ns, d := m.since(r); ns != 0 || d != 0 {
		t.Errorf("with no slice since the reading: pass %v ns, meter time %v; want 0, 0", ns, d)
	}
	// The timed pass repeats the untimed one's lookups, so it only hits.
	before := m.sink
	m.slice()
	if hits := m.sink - before; hits < meterLookups {
		t.Errorf("a slice hit %d times, want the timed pass's %d lookups all to hit", hits, meterLookups)
	}
}

func TestMeterInterleavesWithBusyWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newMeter()
	r := m.read()
	stop := m.start()
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
	}
	stop()
	ns, total := m.since(r)
	if n := m.read().slices - r.slices; n < 2 {
		t.Fatalf("%d meter slices interleaved with 100 ms of busy work on one P, want several", n)
	}
	if ns <= 0 || total <= 0 || total > 100*time.Millisecond {
		t.Errorf("pass %v ns, meter total %v", ns, total)
	}
}
