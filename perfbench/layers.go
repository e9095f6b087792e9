package main

import (
	"sort"
	"strings"

	"sweeper/internal/stats"
)

// simSpans are the spans whose time is spent simulating: their self time,
// less the hot calls timed inside them, is the machine's own run time
// (event dispatch, cores and CPU-side cache accesses, which have no hook).
// In a peak search the pooled builds and resets happen inside them too,
// because experiments does not expose them.
var simSpans = map[string]bool{
	"experiments.Calibrate":      true,
	"experiments.PeakThroughput": true,
	"experiments.probe":          true,
	"machine.warmup":             true,
	"machine.measure":            true,
}

// layerMetrics derives the per-layer metrics of one traced unit: host times
// from its spans and hot-call aggregates, exact simulated counts from the
// recorded job. Metrics of a layer the workload does not load read 0.
func layerMetrics(t *tracer, rec *recorded) map[string]float64 {
	self := selfNs(t.spans)
	dur := map[string]int64{}
	var probes []int64
	var simNs, runSelfNs, recSelfNs int64
	for i, s := range t.spans {
		dur[s.Name] += s.Dur()
		if s.Name == "experiments.probe" {
			probes = append(probes, s.Dur())
		}
		if simSpans[s.Name] {
			runSelfNs += self[i]
			if s.Parent < 0 || !simSpans[t.spans[s.Parent].Name] {
				simNs += s.Dur()
			}
			if s.Job == rec.job {
				recSelfNs += self[i]
			}
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	perCall := func(h hotStat) float64 { return ratio(float64(h.Ns), float64(h.Calls)) }
	plan, inject, sweep := t.hot[hotPlan], t.hot[hotInject], t.hot[hotSweep]
	r, fin, flow := rec.res, rec.final, rec.flow

	m := map[string]float64{
		"workload.new_driver_s":              sec(dur["workload.NewDriver"]),
		"experiments.calibrate_s":            sec(dur["experiments.Calibrate"]),
		"experiments.probes":                 float64(len(probes)),
		"experiments.probe_s":                sec(median(probes)),
		"machine.new_s":                      sec(dur["machine.New"]),
		"machine.reset_s":                    sec(dur["machine.Reset"]),
		"machine.warmup_s":                   sec(dur["machine.warmup"]),
		"machine.measure_s":                  sec(dur["machine.measure"]),
		"machine.run_self_s":                 sec(runSelfNs),
		"machine.host_ns_per_simcyc":         ratio(float64(simNs), float64(rec.simCyc)),
		"machine.host_us_per_req":            ratio(float64(simNs)/1e3, float64(plan.Calls)),
		"workload.plan_calls":                float64(plan.Calls),
		"workload.plan_ns":                   perCall(plan),
		"nic.inject_calls":                   float64(inject.Calls),
		"nic.inject_ns":                      perCall(inject),
		"nic.injected":                       fin["nic.injected"],
		"nic.dropped":                        fin["nic.dropped"],
		"core.sweep_lines":                   float64(sweep.Calls),
		"core.sweep_ns":                      perCall(sweep),
		"core.sweep_useful_frac":             ratio(float64(sweep.Useful), float64(sweep.Calls)),
		"cache.llc_inserts":                  float64(flow.LLCInserts),
		"cache.llc_merges":                   float64(flow.LLCMerges),
		"cache.llc_evict_dirty":              float64(flow.LLCEvictDirty),
		"cache.llc_evict_clean":              float64(flow.LLCEvictClean),
		"cache.l2_victims_dirty":             float64(flow.L2VictimDirty),
		"cache.l2_victims_clean":             float64(flow.L2VictimClean),
		"cache.llc_miss_ratio":               ratio(fin["llc.misses"], fin["llc.hits"]+fin["llc.misses"]),
		"machine.run_self_ns_per_llc_insert": ratio(float64(recSelfNs), float64(flow.LLCInserts)),
		"mem.reads":                          fin["mem.reads"],
		"mem.writes":                         fin["mem.writes"],
		"mem.bus_busy_frac":                  ratio(fin["mem.bus_busy_cycles"], float64(rec.cycles)*float64(rec.channels)),
		"mem.lat_p50_cyc":                    float64(r.DRAMLatP50),
		"mem.lat_p99_cyc":                    float64(r.DRAMLatP99),
		"mem.replay_ns":                      ratio(float64(rec.replayNs), float64(rec.txns)),
		"cpu.served":                         float64(r.Served),
		"cpu.service_cyc":                    r.AvgServiceCycles,
		"cpu.amat_cyc":                       r.AMATCycles,
		"req.lat_p99_cyc":                    float64(r.ReqLatP99),
		"req.lat_p999_cyc":                   float64(r.ReqLatP999),
		"experiments.peak_mrps":              rec.peakMrps,
		"workload.xmem_accesses":             float64(r.XMemAccesses),
	}
	// The offered load of a closed loop is what it injected.
	offered := fin["gen.offered"]
	if offered == 0 {
		offered = fin["nic.injected"] + fin["nic.dropped"]
	}
	m["nic.drop_frac"] = ratio(fin["nic.dropped"], offered)
	for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
		name := "dram.acc." + dramKindName(k)
		m[name] = fin[name]
	}
	return m
}

// dramKindName is the machine's metric-name form of an access kind
// ("CPU TX Rd/Wr" -> "cpu_tx_rd_wr").
func dramKindName(k stats.AccessKind) string {
	return strings.NewReplacer(" ", "_", "/", "_").Replace(strings.ToLower(k.String()))
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of xs (the mean of the middle pair for an even count), 0 when
// empty; xs is not modified.
func median[T int64 | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// layerUnits lists every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"workload.new_driver_s", "s"},
	{"experiments.calibrate_s", "s"},
	{"experiments.probes", "count"},
	{"experiments.probe_s", "s"},
	{"machine.new_s", "s"},
	{"machine.reset_s", "s"},
	{"machine.warmup_s", "s"},
	{"machine.measure_s", "s"},
	{"machine.run_self_s", "s"},
	{"machine.host_ns_per_simcyc", "ns/cycle"},
	{"machine.host_us_per_req", "us/req"},
	{"machine.run_self_ns_per_llc_insert", "ns/insert"},
	{"workload.plan_calls", "count"},
	{"workload.plan_ns", "ns/call"},
	{"workload.xmem_accesses", "count"},
	{"nic.inject_calls", "count"},
	{"nic.inject_ns", "ns/call"},
	{"nic.injected", "count"},
	{"nic.dropped", "count"},
	{"nic.drop_frac", "fraction"},
	{"core.sweep_lines", "count"},
	{"core.sweep_ns", "ns/line"},
	{"core.sweep_useful_frac", "fraction"},
	{"cache.llc_inserts", "count"},
	{"cache.llc_merges", "count"},
	{"cache.llc_evict_dirty", "count"},
	{"cache.llc_evict_clean", "count"},
	{"cache.l2_victims_dirty", "count"},
	{"cache.l2_victims_clean", "count"},
	{"cache.llc_miss_ratio", "fraction"},
	{"mem.reads", "count"},
	{"mem.writes", "count"},
	{"mem.bus_busy_frac", "fraction"},
	{"mem.lat_p50_cyc", "cycles"},
	{"mem.lat_p99_cyc", "cycles"},
	{"mem.replay_ns", "ns/txn"},
	{"dram.acc.nic_rx_wr", "count"},
	{"dram.acc.nic_tx_rd", "count"},
	{"dram.acc.cpu_rx_rd", "count"},
	{"dram.acc.cpu_tx_rd_wr", "count"},
	{"dram.acc.cpu_other_rd", "count"},
	{"dram.acc.rx_evct", "count"},
	{"dram.acc.tx_evct", "count"},
	{"dram.acc.other_evct", "count"},
	{"cpu.served", "count"},
	{"cpu.service_cyc", "cycles"},
	{"cpu.amat_cyc", "cycles"},
	{"req.lat_p99_cyc", "cycles"},
	{"req.lat_p999_cyc", "cycles"},
	{"experiments.peak_mrps", "Mrps"},
	{"trace.overhead_frac", "fraction"},
}
