package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteSeriesCSV emits the series as CSV: a cycle column followed by one
// column per metric. Counter columns are differenced into per-interval
// deltas (the first row keeps the value accumulated before the first
// sample); gauge columns are emitted as sampled.
func WriteSeriesCSV(w io.Writer, s *Series) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "cycle")
	for _, n := range s.Names {
		fmt.Fprintf(bw, ",%s", n)
	}
	fmt.Fprintln(bw)
	prev := make([]float64, len(s.Names))
	for i, cyc := range s.Cycles {
		fmt.Fprintf(bw, "%d", cyc)
		for j, v := range s.Rows[i] {
			out := v
			if s.Kinds[j] == KindCounter {
				out = v - prev[j]
				prev[j] = v
			}
			fmt.Fprintf(bw, ",%g", out)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// TraceMeta parameterizes a Chrome trace export.
type TraceMeta struct {
	// Process labels the trace's process row ("sweepersim kvs").
	Process string
	// FreqHz converts simulated cycles to trace microseconds; 0 emits raw
	// cycles as microseconds.
	FreqHz float64
}

// traceEvent is one trace_event entry; the subset of the Chrome trace format
// the exporter uses (counter tracks plus process-name metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace emits the series in Chrome trace_event JSON (object
// format), loadable by chrome://tracing and Perfetto. Each metric becomes a
// counter track; counters are differenced into per-interval deltas so the
// track reads as activity over time, not a ramp.
func WriteChromeTrace(w io.Writer, s *Series, meta TraceMeta) error {
	toUS := func(cyc uint64) float64 {
		if meta.FreqHz <= 0 {
			return float64(cyc)
		}
		return float64(cyc) / meta.FreqHz * 1e6
	}
	name := meta.Process
	if name == "" {
		name = "sweeper"
	}
	events := make([]traceEvent, 0, len(s.Cycles)*len(s.Names)+1)
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": name},
	})
	prev := make([]float64, len(s.Names))
	for i, cyc := range s.Cycles {
		ts := toUS(cyc)
		for j, v := range s.Rows[i] {
			out := v
			if s.Kinds[j] == KindCounter {
				out = v - prev[j]
				prev[j] = v
			}
			events = append(events, traceEvent{
				Name: s.Names[j], Ph: "C", Ts: ts, Pid: 1, Tid: 1,
				Args: map[string]any{"value": out},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// Manifest is the machine-readable record of one run: the fully resolved
// configuration, the measured results, closing metric totals, histogram
// summaries and (when sampled) the full time-series. Config and Results are
// typed any so the package stays dependency-free below machine.
type Manifest struct {
	Label        string             `json:"label,omitempty"`
	GeneratedAt  string             `json:"generated_at,omitempty"`
	WarmupCycles uint64             `json:"warmup_cycles"`
	MeasureCyc   uint64             `json:"measure_cycles"`
	SampleEvery  uint64             `json:"sample_every_cycles,omitempty"`
	Config       any                `json:"config"`
	Results      any                `json:"results"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	Histograms   []HistogramSummary `json:"histograms,omitempty"`
	Series       *Series            `json:"series,omitempty"`
}

// WriteManifest emits the manifest as indented JSON.
func WriteManifest(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
