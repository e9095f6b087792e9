package machine

import (
	"strings"

	"sweeper/internal/obs"
	"sweeper/internal/stats"
)

// Metrics returns the machine's observability registry, building it lazily
// so runs that never export anything pay nothing. The registry is
// invalidated by configure (New and Reset), because reconfiguration may
// replace the components its read closures capture.
func (m *Machine) Metrics() *obs.Registry {
	if m.metrics == nil {
		m.metrics = m.buildRegistry()
	}
	return m.metrics
}

func (m *Machine) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	m.dp.registerMetrics(r)
	m.nicD.RegisterMetrics(r)
	if m.agen != nil {
		m.agen.RegisterMetrics(r)
	}
	if m.cgen != nil {
		m.cgen.RegisterMetrics(r)
	}
	r.Counter("cpu.served", func() uint64 { return m.served })
	r.Gauge("cpu.idle_cores", func(uint64) float64 {
		n := 0
		for _, c := range m.cores {
			if c.Idle() {
				n++
			}
		}
		return float64(n)
	})
	for _, c := range m.cores {
		c.RegisterMetrics(r)
	}
	for _, x := range m.xmem {
		x.RegisterMetrics(r)
	}
	r.Histogram("req.latency", m.reqLat)
	return r
}

// registerMetrics exposes the memory side: the per-kind DRAM transaction
// breakdown, the DRAM model's counters, shared-cache activity and the DRAM
// latency distribution.
func (dp *datapath) registerMetrics(r *obs.Registry) {
	for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
		k := k
		r.Counter("dram.acc."+metricName(k.String()), func() uint64 { return dp.breakdown.Count(k) })
	}
	dp.dram.RegisterMetrics(r)
	if dp.tier1 != nil {
		dp.tier1.RegisterMetrics(r)
		dp.place.RegisterMetrics(r)
	}
	dp.hier.RegisterMetrics(r)
	r.Histogram("dram.latency", dp.dramLat)
}

// metricName flattens a display name ("CPU TX Rd/Wr") into a metric key
// ("cpu_tx_rd_wr").
func metricName(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, " ", "_")
	return strings.ReplaceAll(s, "/", "_")
}

// EnableSampling arms the observability sampler for the next Run: every
// registered metric is snapshotted each `every` simulated cycles, from
// cycle 0 through the end of measurement. Pass 0 for ~256 samples across
// the run. A machine without this call runs unsampled at zero cost.
func (m *Machine) EnableSampling(every uint64) {
	m.obsOn = true
	m.obsEvery = every
}

// sampleCadence resolves the sampling period for a run of the given length.
func (m *Machine) sampleCadence(total uint64) uint64 {
	if m.obsEvery > 0 {
		return m.obsEvery
	}
	if every := total / 256; every > 0 {
		return every
	}
	return 1
}

// ObsSeries returns the sampled time-series after Run, or nil when sampling
// was never armed.
func (m *Machine) ObsSeries() *obs.Series {
	if m.sampler == nil {
		return nil
	}
	return m.sampler.Series()
}

// BuildManifest assembles the machine-readable record of the completed run:
// the fully resolved configuration, the measured results, the closing value
// of every registered metric, histogram summaries, and the sampled
// time-series when sampling was armed.
func (m *Machine) BuildManifest(label string, r Results) *obs.Manifest {
	reg := m.Metrics()
	man := &obs.Manifest{
		Label:        label,
		WarmupCycles: m.lastWarmup,
		MeasureCyc:   m.lastMeasure,
		Config:       m.cfg,
		Results:      r,
		Metrics:      reg.Final(m.eng.Now()),
		Histograms:   reg.HistogramSummaries(),
	}
	if m.sampler != nil {
		man.SampleEvery = m.sampler.Every()
		man.Series = m.sampler.Series()
	}
	return man
}
