// Package obs is the simulator's observability layer: a registry of named
// metrics that components expose through read closures, a periodic sampler
// driven off the event engine that snapshots them into time-series over
// simulated time, and exporters for the sampled data (CSV time-series,
// Chrome trace_event JSON, per-run manifests).
//
// The design is pull-based so the hot path stays untouched: components keep
// their existing plain uint64 counters and register closures that read them;
// nothing is allocated or called per simulated event. Sampling cost is paid
// only at the sampler's cadence, and only when a sampler is armed at all —
// a machine run with observability disabled schedules no events and reads no
// metrics.
package obs

import (
	"encoding/json"
	"fmt"

	"sweeper/internal/stats"
)

// Kind classifies a metric's read semantics.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing cumulative count
	// (DRAM reads, packets injected). Exporters difference consecutive
	// samples into per-interval deltas.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (ring occupancy, write-queue
	// depth, DDIO ways). Exporters emit samples as read.
	KindGauge
)

// String names the kind for manifests and debugging.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MarshalJSON emits the kind name, keeping manifests self-describing.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the kind name, so exported series round-trip.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	default:
		return fmt.Errorf("obs: unknown metric kind %q", s)
	}
	return nil
}

type metric struct {
	name string
	kind Kind
	read func(now uint64) float64
}

type histEntry struct {
	name string
	h    *stats.Histogram
}

// Registry holds a machine's registered metrics in registration order. It is
// not safe for concurrent use; the simulator is single-threaded by design.
type Registry struct {
	metrics []metric
	byName  map[string]bool
	hists   []histEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) add(name string, kind Kind, read func(now uint64) float64) {
	if name == "" || read == nil {
		panic("obs: metric needs a name and a read function")
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.byName[name] = true
	r.metrics = append(r.metrics, metric{name: name, kind: kind, read: read})
}

// Counter registers a cumulative count read from fn.
func (r *Registry) Counter(name string, fn func() uint64) {
	r.add(name, KindCounter, func(uint64) float64 { return float64(fn()) })
}

// Gauge registers an instantaneous value. The reader receives the sample
// cycle, so derived gauges (backlogs relative to now) need no extra state.
func (r *Registry) Gauge(name string, fn func(now uint64) float64) {
	r.add(name, KindGauge, fn)
}

// Histogram registers a latency distribution for manifest summaries. The
// histogram is read at export time, not sampled.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	if name == "" || h == nil {
		panic("obs: histogram needs a name and an instance")
	}
	for _, e := range r.hists {
		if e.name == name {
			panic(fmt.Sprintf("obs: duplicate histogram %q", name))
		}
	}
	r.hists = append(r.hists, histEntry{name: name, h: h})
}

// Len returns the number of registered sampled metrics (histograms excluded).
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns the sampled metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// Kinds returns the sampled metric kinds in registration order.
func (r *Registry) Kinds() []Kind {
	out := make([]Kind, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.kind
	}
	return out
}

// readInto fills row (len == Len) with the current metric values.
func (r *Registry) readInto(now uint64, row []float64) {
	for i := range r.metrics {
		row[i] = r.metrics[i].read(now)
	}
}

// Final returns every sampled metric's value at cycle now, keyed by name.
// Manifests embed it as the run's closing totals.
func (r *Registry) Final(now uint64) map[string]float64 {
	out := make(map[string]float64, len(r.metrics))
	for _, m := range r.metrics {
		out[m.name] = m.read(now)
	}
	return out
}

// HistogramSummary condenses one registered distribution for manifests.
type HistogramSummary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
}

// HistogramSummaries summarizes every registered histogram, in registration
// order.
func (r *Registry) HistogramSummaries() []HistogramSummary {
	out := make([]HistogramSummary, 0, len(r.hists))
	for _, e := range r.hists {
		out = append(out, HistogramSummary{
			Name:  e.name,
			Count: e.h.Count(),
			Mean:  e.h.Mean(),
			Min:   e.h.Min(),
			Max:   e.h.Max(),
			P50:   e.h.Percentile(0.50),
			P90:   e.h.Percentile(0.90),
			P99:   e.h.Percentile(0.99),
			P999:  e.h.Percentile(0.999),
		})
	}
	return out
}
