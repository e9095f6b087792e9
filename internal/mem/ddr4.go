// Package mem models the server's DRAM: DDR4-3200 channels with ranks,
// banks, row buffers and a shared per-channel data bus, following the
// Ramulator-derived configuration in the paper's Table I (3 to 8 channels,
// 4 ranks per channel, 8 banks per rank).
//
// The model captures the two properties the paper's results depend on:
//
//   - finite per-channel bandwidth (one 64B burst per tBL, ~25.6 GB/s per
//     DDR4-3200 channel), and
//   - queuing delay that grows with utilization, because requests serialize
//     on bank timing and the channel data bus.
//
// Requests are admitted in simulation-event order; per-bank and per-bus
// busy-until timestamps create the queuing behaviour without an explicit
// scheduler.
package mem

import (
	"sweeper/internal/fastdiv"
	"sweeper/internal/obs"
)

// Config describes what the study varies in the memory subsystem: the
// channel count and the write buffer. Everything else is Table I's
// DDR4-3200, the constants below.
type Config struct {
	// WriteQueueDepth is the controller's per-channel write buffer; when
	// full, further traffic stalls behind forced write drains.
	WriteQueueDepth uint64
	// Channels is the number of independent memory channels (paper: 3-8).
	Channels int
}

// DefaultConfig returns the paper's four-channel Table I configuration.
func DefaultConfig() Config {
	return Config{WriteQueueDepth: 64, Channels: 4}
}

// Table I's channel geometry: 4 ranks of 8 banks, 8 KiB rows.
const (
	ranksPerChannel = 4
	banksPerRank    = 8
	banksPerChannel = ranksPerChannel * banksPerRank
	rowBytes        = 8 << 10
	linesPerRow     = rowBytes / lineBytes
)

// DDR4-3200AA timing (22-22-22) as used by Ramulator, in CPU cycles: a
// 1.6 GHz DRAM clock is 2 cycles of the 3.2 GHz core clock.
const (
	cpuCyclesPerDRAMCycle = 2
	// tRCD is the ACTIVATE-to-CAS delay (a row miss adds it).
	tRCD = 22 * cpuCyclesPerDRAMCycle
	// tRP is the PRECHARGE delay (closing a conflicting row adds it).
	tRP = 22 * cpuCyclesPerDRAMCycle
	// tCL is the CAS (read) latency.
	tCL = 22 * cpuCyclesPerDRAMCycle
	// tBL is the data-bus occupancy of one 64B burst (BL8 = 4 clocks).
	tBL = 4 * cpuCyclesPerDRAMCycle
	// tCCD is the CAS-to-CAS pipelining gap: row-buffer hits to the same
	// bank stream one burst per tCCD.
	tCCD = 4 * cpuCyclesPerDRAMCycle
	// tRAS is the minimum ACTIVATE-to-PRECHARGE time.
	tRAS = 52 * cpuCyclesPerDRAMCycle
	// tREFI is the refresh interval (7.8 us) and tRFC the refresh cycle
	// time (350 ns, 8Gb devices): all banks of a channel stall for tRFC
	// every tREFI.
	tREFI = 12480 * cpuCyclesPerDRAMCycle
	tRFC  = 560 * cpuCyclesPerDRAMCycle
)

const lineBytes = 64

type bank struct {
	openRow int64 // -1 when no row is open
	// readyAt is when the bank accepts its next column command; row hits
	// pipeline at tCCD, so streaming a buffer is bus-limited, not
	// CAS-latency-limited.
	readyAt uint64
	// lastAct is the last ACTIVATE time, bounding precharge (tRAS) and
	// the next ACTIVATE (tRC).
	lastAct uint64
}

type channel struct {
	banks     [banksPerChannel]bank
	busFreeAt uint64
	// pendingWrites is the controller's write queue: writebacks wait here
	// and drain through idle bus slots. Reads have priority (as in real
	// controllers) until the queue fills, at which point forced drains
	// push the bus out — that is how write traffic steals bandwidth from
	// demand reads, the paper's interference mechanism.
	pendingWrites uint64
	// nextRefreshAt schedules the channel's next all-bank refresh.
	nextRefreshAt uint64
}

// DDR4 is the memory model. It is not safe for concurrent use; the
// simulator is single-threaded by design.
type DDR4 struct {
	cfg      Config
	channels []channel
	// chDiv strength-reduces the per-transaction channel split (the
	// channel count is 3 in some sweeps — not a power of two).
	chDiv fastdiv.Divisor

	refreshes uint64

	reads  uint64
	writes uint64
}

// New creates a memory subsystem from cfg.
func New(cfg Config) *DDR4 {
	if cfg.Channels <= 0 {
		panic("mem: Channels must be positive")
	}
	m := &DDR4{
		cfg:      cfg,
		channels: make([]channel, cfg.Channels),
		chDiv:    fastdiv.New(uint64(cfg.Channels)),
	}
	m.Reset()
	return m
}

// Config returns the configuration the model was built with.
func (m *DDR4) Config() Config { return m.cfg }

// Reset returns the model to its just-constructed state: all rows closed,
// buses idle, write queues empty, refresh schedules rewound and counters
// zeroed. Pooled machines call this instead of rebuilding the channel state.
func (m *DDR4) Reset() {
	for i := range m.channels {
		c := &m.channels[i]
		for b := range c.banks {
			c.banks[b] = bank{openRow: -1}
		}
		c.busFreeAt = 0
		c.pendingWrites = 0
		c.nextRefreshAt = tREFI
	}
	m.refreshes, m.reads, m.writes = 0, 0, 0
}

// map splits a line address into channel, bank and row, interleaving
// consecutive lines across channels and keeping a row's columns together so
// streaming accesses enjoy row-buffer hits.
func (m *DDR4) mapAddr(a uint64) (ch int, bk int, row int64) {
	q, r := m.chDiv.DivMod(a / lineBytes)
	rest := q / linesPerRow // drop column bits
	return int(r), int(rest % banksPerChannel), int64(rest / banksPerChannel)
}

// refresh stalls the channel for tRFC every tREFI (all-bank refresh),
// charging any refreshes due by cycle now.
func (m *DDR4) refresh(c *channel, now uint64) {
	for c.nextRefreshAt <= now {
		base := c.busFreeAt
		if c.nextRefreshAt > base {
			base = c.nextRefreshAt
		}
		c.busFreeAt = base + tRFC
		c.nextRefreshAt += tREFI
		m.refreshes++
	}
}

// drainIdle retires queued writes through bus slots that sat idle up to
// cycle now, advancing the channel clock. One write occupies one tBL slot.
func (m *DDR4) drainIdle(c *channel, now uint64) {
	if c.busFreeAt >= now {
		return
	}
	idle := now - c.busFreeAt
	k := idle / tBL
	if k >= c.pendingWrites {
		c.pendingWrites = 0
		c.busFreeAt = now
		return
	}
	c.pendingWrites -= k
	c.busFreeAt = now
}

// read performs bank+bus timing for a demand read and returns the cycle at
// which the burst completes on the data bus. Reads have priority over the
// write queue; queued writes only delay them indirectly, via forced drains
// when the write queue overflows.
func (m *DDR4) read(now uint64, a uint64) uint64 {
	ch, bk, row := m.mapAddr(a)
	c := &m.channels[ch]
	b := &c.banks[bk]
	var probeBus, probeReady uint64
	if obs.ProbesEnabled {
		probeBus, probeReady = c.busFreeAt, b.readyAt
	}
	m.refresh(c, now)
	m.drainIdle(c, now)

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	var casAt uint64
	if b.openRow == row {
		// Row-buffer hit: the column command issues immediately and the
		// bank can pipeline the next one tCCD later.
		casAt = start
	} else {
		actAt := start
		if b.openRow >= 0 {
			// Precharge the open row, no earlier than tRAS after
			// its activation.
			preAt := start
			if min := b.lastAct + tRAS; min > preAt {
				preAt = min
			}
			actAt = preAt + tRP
		}
		// ACT-to-ACT to the same bank is bounded by tRC = tRAS+tRP.
		if min := b.lastAct + tRAS + tRP; min > actAt {
			actAt = min
		}
		b.lastAct = actAt
		casAt = actAt + tRCD
	}

	dataReady := casAt + tCL
	busStart := dataReady
	if c.busFreeAt > busStart {
		busStart = c.busFreeAt
	}
	done := busStart + tBL
	c.busFreeAt = done
	b.openRow = row
	// The bank accepts its next column command tCCD after this one. Bank
	// state advances on bank timing alone — coupling it to the (possibly
	// backlogged) bus slot would compound bus queueing with bank latency
	// on every row miss and ratchet the backlog upward forever.
	b.readyAt = casAt + tCCD
	if obs.ProbesEnabled {
		// The channel bus clock and per-bank command clock only ever
		// advance; a regression here means timing state went backwards
		// and queuing delays are being under-charged.
		if c.busFreeAt < probeBus {
			obs.Failf("mem: ch%d busFreeAt regressed %d -> %d (read at %d)",
				ch, probeBus, c.busFreeAt, now)
		}
		if b.readyAt < probeReady {
			obs.Failf("mem: ch%d bank%d readyAt regressed %d -> %d (read at %d)",
				ch, bk, probeReady, b.readyAt, now)
		}
	}
	return done
}

// Read performs a 64B demand read beginning at cycle now and returns the
// completion cycle (the requester blocks until then).
func (m *DDR4) Read(now uint64, a uint64) (done uint64) {
	m.reads++
	return m.read(now, a)
}

// Write enqueues a 64B write (writeback or DMA write) at cycle now. Writes
// are fire-and-forget for the requester and sit in the controller's write
// queue, draining through idle bus slots; when the queue is full the excess
// is force-drained, pushing the channel clock out and stealing bandwidth
// from demand reads exactly as in the paper. It returns the cycle by which
// the write's bus slot is accounted for.
func (m *DDR4) Write(now uint64, a uint64) (done uint64) {
	m.writes++
	ch, _, _ := m.mapAddr(a)
	c := &m.channels[ch]
	var probeBus uint64
	if obs.ProbesEnabled {
		probeBus = c.busFreeAt
	}
	m.refresh(c, now)
	m.drainIdle(c, now)
	c.pendingWrites++
	cap := m.cfg.WriteQueueDepth
	if cap == 0 {
		cap = 1
	}
	if c.pendingWrites > cap {
		// Forced drain: the controller must issue writes now, consuming
		// bus slots ahead of any later reads.
		excess := c.pendingWrites - cap
		base := c.busFreeAt
		if now > base {
			base = now
		}
		c.busFreeAt = base + excess*tBL
		c.pendingWrites = cap
	}
	if obs.ProbesEnabled && c.busFreeAt < probeBus {
		obs.Failf("mem: ch%d busFreeAt regressed %d -> %d (write at %d)",
			ch, probeBus, c.busFreeAt, now)
	}
	if c.busFreeAt > now {
		return c.busFreeAt
	}
	return now + tBL
}

// RegisterMetrics exposes the model's transaction counters and controller
// queue state to the observability registry. Bus utilization over a sample
// interval is the delta of mem.bus_busy_cycles divided by interval length
// times channel count.
func (m *DDR4) RegisterMetrics(r *obs.Registry) {
	r.Counter("mem.reads", func() uint64 { return m.reads })
	r.Counter("mem.writes", func() uint64 { return m.writes })
	r.Counter("mem.refreshes", func() uint64 { return m.refreshes })
	r.Counter("mem.bus_busy_cycles", func() uint64 {
		return (m.reads+m.writes)*tBL + m.refreshes*tRFC
	})
	r.Gauge("mem.write_queue_depth", func(uint64) float64 {
		var d uint64
		for i := range m.channels {
			d += m.channels[i].pendingWrites
		}
		return float64(d)
	})
	r.Gauge("mem.bus_backlog_cycles", func(now uint64) float64 {
		var worst uint64
		for i := range m.channels {
			if free := m.channels[i].busFreeAt; free > now && free-now > worst {
				worst = free - now
			}
		}
		return float64(worst)
	})
}

// Refreshes returns the number of all-bank refreshes performed.
func (m *DDR4) Refreshes() uint64 { return m.refreshes }

// Reads returns the cumulative demand-read transaction count.
func (m *DDR4) Reads() uint64 { return m.reads }

// Writes returns the cumulative write transaction count.
func (m *DDR4) Writes() uint64 { return m.writes }

// Transactions returns reads + writes.
func (m *DDR4) Transactions() uint64 { return m.reads + m.writes }

// PeakGBps returns the theoretical peak bandwidth of the configuration at
// the given CPU frequency, for utilization reporting.
func (m *DDR4) PeakGBps(cpuHz float64) float64 {
	cyclesPerBurst := float64(tBL)
	burstsPerSec := cpuHz / cyclesPerBurst
	return burstsPerSec * float64(lineBytes) * float64(len(m.channels)) / 1e9
}
