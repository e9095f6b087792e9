package main

import (
	"sort"
	"sync"
	"time"
)

// The host-speed meter. On the development host, a 2-vCPU KVM guest, the
// simulator's speed drifts by up to 1.8x over minutes: far more than run
// medians can absorb. A reading taken before and after a unit does not
// track it (the host changes speed within a unit), and neither does a
// process running beside the simulator. A kernel with the simulator's own
// profile, interleaved with the simulation on the same CPU, does: random
// lookups and LRU fills in set-associative tag arrays, like cache.SetAssoc.
//
// Every unit process therefore runs one meter slice per meterEvery while it
// simulates. A slice first refills the kernel's working set with an untimed
// pass, then times the same lookups again. So the timed pass finds its data
// in the host's caches whatever the simulation left there: its time depends
// on the host, not on the simulator's footprint, and a change to the
// simulator passes through the scaling at full size. The orchestrator
// subtracts both passes' time and rescales the unit's host times to the
// meter's reference speed by the median timed pass. The median, unlike the
// mean, ignores the few passes the host happens to stall; over a 150-second
// trace it tracked the simulation's speed a quarter more closely.

const (
	meterSets, meterWays = 1 << 14, 12
	meterLookups         = 4000 // per pass
	meterEvery           = 20 * time.Millisecond
	meterWarm            = 50 * time.Millisecond
	// meterRefNs is the timed pass's time rescaled host times are
	// expressed at: about its median on the development host.
	meterRefNs = 130_000
)

// meter is the kernel's state and its record.
type meter struct {
	tags []uint64
	lru  []uint32
	x    uint64
	tick uint32
	sink uint64

	mu sync.Mutex
	// passNs holds every slice's timed-pass time; totalNs is the time of
	// every pass, timed or not.
	passNs  []float64
	totalNs int64
}

func newMeter() *meter {
	return &meter{
		tags: make([]uint64, meterSets*meterWays),
		lru:  make([]uint32, meterSets*meterWays),
		x:    88172645463325252,
	}
}

// pass runs meterLookups lookups from generator state x and returns the
// state after them: a skewed stream (three quarters to a hot 64K-line
// subset, the rest over 4M lines) probes a 12-way LRU cache of 16K sets,
// filling the least recently used way on a miss.
func (m *meter) pass(x uint64) uint64 {
	var hits uint64
	for i := 0; i < meterLookups; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := x % (1 << 22)
		if x&3 != 0 {
			line &= 1<<16 - 1
		}
		base := int(line%meterSets) * meterWays
		m.tick++
		victim, oldest, hit := base, ^uint32(0), false
		for w := base; w < base+meterWays; w++ {
			if m.tags[w] == line+1 {
				m.lru[w], hit = m.tick, true
				break
			}
			if m.lru[w] < oldest {
				victim, oldest = w, m.lru[w]
			}
		}
		if hit {
			hits++
			continue
		}
		m.tags[victim], m.lru[victim] = line+1, m.tick
	}
	m.sink += hits
	return x
}

// slice runs one untimed pass, which brings its lines back into the host's
// caches, and times the same lookups again.
func (m *meter) slice() {
	start := time.Now()
	x := m.x
	m.x = m.pass(x)
	mid := time.Now()
	m.pass(x)
	end := time.Now()
	m.mu.Lock()
	m.passNs = append(m.passNs, float64(end.Sub(mid)))
	m.totalNs += int64(end.Sub(start))
	m.mu.Unlock()
}

// reading marks a moment in the meter's record.
type reading struct {
	slices  int
	totalNs int64
}

func (m *meter) read() reading {
	m.mu.Lock()
	defer m.mu.Unlock()
	return reading{len(m.passNs), m.totalNs}
}

// since is the median timed-pass time (0 without a slice) and the meter's
// total time after r.
func (m *meter) since(r reading) (passNs float64, total time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total = time.Duration(m.totalNs - r.totalNs)
	ns := append([]float64(nil), m.passNs[r.slices:]...)
	if len(ns) == 0 {
		return 0, total
	}
	sort.Float64s(ns)
	return ns[len(ns)/2], total
}

// warm runs slices back to back for d.
func (m *meter) warm(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		m.slice()
	}
}

// start runs one slice per meterEvery in the background until the returned
// stop is called; stop waits for the goroutine to exit. Unit processes run
// with GOMAXPROCS 1, so the slices interleave with the simulation on its
// CPU: the runtime preempts the simulation for them.
func (m *meter) start() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m.slice()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// scaled rescales host time s, of which meterS was the meter's own, to the
// meter's reference speed: its timed pass took passNs then. Without a
// reading (passNs 0) s is returned as measured.
func scaled(s, meterS, passNs float64) float64 {
	if passNs <= 0 {
		return s
	}
	return (s - meterS) * meterRefNs / passNs
}
