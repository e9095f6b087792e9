package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"sweeper/internal/machine"
	"sweeper/internal/scenario"
	"sweeper/internal/stats"
)

// job is one (param, variant) simulation of a figure sweep. cfg is final:
// the variant is already applied, and variant is only its display name.
type job struct {
	param   string
	variant string
	cfg     machine.Config
	// closedLoopDepth > 0 runs the keep-D-queued loop instead of a peak
	// search.
	closedLoopDepth int
	cell            Cell
}

func runJobs(jobs []job, sc Scale) {
	parallelFor(len(jobs), sc, func(i int) {
		j := &jobs[i]
		if j.closedLoopDepth > 0 {
			r := RunClosedLoop(j.cfg, j.closedLoopDepth, sc)
			j.cell = CellFromResults(j.param, j.variant, r).
				WithExtra("p99_dram", float64(r.DRAMLatP99)).
				WithExtra("xmem_ipc", r.XMemIPC)
			return
		}
		pk := PeakThroughput(j.cfg, sc)
		j.cell = CellFromResults(j.param, j.variant, pk.At).
			WithExtra("peak_offered_mrps", pk.PeakMrps).
			WithExtra("slo_cycles", float64(pk.SLOCycles)).
			WithExtra("p99_req", float64(pk.At.ReqLatP99))
	})
}

func cells(jobs []job) []Cell {
	out := make([]Cell, len(jobs))
	for i, j := range jobs {
		out[i] = j.cell
	}
	return out
}

// jobsFromSpec expands a shipped scenario into the harness's job list: axes
// outermost, variants innermost, parameter labels joined with "/".
func jobsFromSpec(name string) []job {
	runs, err := scenario.MustSpec(name).Expand()
	if err != nil {
		panic(err)
	}
	jobs := make([]job, len(runs))
	for i, r := range runs {
		jobs[i] = job{
			param:           r.Param,
			variant:         r.Variant.DisplayName(),
			cfg:             r.Config,
			closedLoopDepth: r.ClosedLoopDepth,
		}
	}
	return jobs
}

func panels(id, title string, cs []Cell) []Table {
	return []Table{
		{ID: id + "a", Title: title + ": peak throughput", Metric: "mrps", Cells: cs},
		{ID: id + "b", Title: title + ": memory bandwidth at peak", Metric: "gbps", Cells: cs},
		{ID: id + "c", Title: title + ": DRAM accesses per request", Metric: "breakdown", Cells: cs},
	}
}

// Fig1 reproduces Figure 1: the KVS under DMA, 2/4/6-way DDIO and
// Ideal-DDIO across 512/1024/2048 RX buffers per core (1KB items).
func Fig1(sc Scale) []Table {
	jobs := jobsFromSpec("fig1")
	runJobs(jobs, sc)
	return panels("fig1", "KVS network data leaks", cells(jobs))
}

// Fig2 reproduces Figure 2: the L3 forwarder with D packets kept queued per
// core (premature-eviction study), 2048-deep rings.
func Fig2(sc Scale) []Table {
	jobs := jobsFromSpec("fig2")
	runJobs(jobs, sc)
	return panels("fig2", "L3fwd with queued packets", cells(jobs))
}

// Fig5 reproduces Figure 5: DDIO way sensitivity with and without Sweeper,
// for 512B and 1KB items across 512/1024/2048 RX buffers per core.
func Fig5(sc Scale) []Table {
	jobs := jobsFromSpec("fig5")
	runJobs(jobs, sc)
	return panels("fig5", "Sweeper vs DDIO configuration", cells(jobs))
}

// LatencyCurve is one CDF of Figure 6.
type LatencyCurve struct {
	Config  string
	Context string // "peak" or "iso"
	AtMrps  float64
	Mean    float64
	P50     uint64
	P99     uint64
	CDF     []stats.CDFPoint
}

// Fig6Result carries Figure 6's DRAM latency distributions plus a summary
// table.
type Fig6Result struct {
	Curves  []LatencyCurve
	Summary Table
}

// Fig6 reproduces Figure 6: DRAM access latency CDFs for 2- and 12-way
// DDIO with and without Sweeper — left at each configuration's own peak,
// right at iso-throughput (the 2-way baseline's peak).
func Fig6(sc Scale) Fig6Result {
	variants := ddioPairs(2, 12)
	base := KVSConfig(1024, 1024)

	peaks := make([]PeakResult, len(variants))
	parallelFor(len(variants), sc, func(i int) {
		peaks[i] = PeakThroughput(variants[i].Apply(base), sc)
	})

	isoRate := peaks[0].PeakMrps // plain 2-way DDIO's achieved peak
	isoRes := make([]machine.Results, len(variants))
	parallelFor(len(variants), sc, func(i int) {
		isoRes[i] = RunAtRate(variants[i].Apply(base), isoRate, sc)
	})

	out := Fig6Result{Summary: Table{
		ID:     "fig6",
		Title:  "DRAM access latency (KVS, 1KB items, 1024 buf/core)",
		Metric: "dram_mean",
	}}
	for i, v := range variants {
		r := peaks[i].At
		out.Curves = append(out.Curves, LatencyCurve{
			Config: v.Name, Context: "peak", AtMrps: r.ThroughputMrps,
			Mean: r.DRAMLatMean, P50: r.DRAMLatP50, P99: r.DRAMLatP99,
			CDF: r.DRAMLatCDF,
		})
		out.Summary.Cells = append(out.Summary.Cells,
			CellFromResults("peak", v.Name, r).
				WithExtra("dram_mean", r.DRAMLatMean).
				WithExtra("dram_p99", float64(r.DRAMLatP99)))
	}
	for i, v := range variants {
		r := isoRes[i]
		out.Curves = append(out.Curves, LatencyCurve{
			Config: v.Name, Context: "iso", AtMrps: r.ThroughputMrps,
			Mean: r.DRAMLatMean, P50: r.DRAMLatP50, P99: r.DRAMLatP99,
			CDF: r.DRAMLatCDF,
		})
		out.Summary.Cells = append(out.Summary.Cells,
			CellFromResults(fmt.Sprintf("iso %.0fMrps", isoRate), v.Name, r).
				WithExtra("dram_mean", r.DRAMLatMean).
				WithExtra("dram_p99", float64(r.DRAMLatP99)))
	}
	return out
}

// WriteCDFCSV emits Figure 6's DRAM-latency CDF curves in long form
// (config,context,at_mrps,latency_cycles,cdf), the format committed under
// results/fig6_cdf.csv.
func WriteCDFCSV(w io.Writer, r Fig6Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "context", "at_mrps", "latency_cycles", "cdf"}); err != nil {
		return err
	}
	for _, c := range r.Curves {
		for _, p := range c.CDF {
			row := []string{c.Config, c.Context, fmt.Sprintf("%.3f", c.AtMrps),
				fmt.Sprintf("%d", p.Value), fmt.Sprintf("%.6f", p.Fraction)}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fig7 reproduces Figure 7: Sweeper under premature buffer evictions (the
// deep-queue L3fwd scenarios revisited with Sweeper).
func Fig7(sc Scale) []Table {
	jobs := jobsFromSpec("fig7")
	runJobs(jobs, sc)
	cs := cells(jobs)
	return []Table{
		{ID: "fig7a", Title: "Sweeper with premature evictions: throughput", Metric: "mrps", Cells: cs},
		{ID: "fig7b", Title: "Sweeper with premature evictions: accesses per packet", Metric: "breakdown", Cells: cs},
	}
}

// Fig8 reproduces Figure 8: sensitivity to memory bandwidth (3/4/8
// channels) for three KVS footprints.
func Fig8(sc Scale) []Table {
	jobs := jobsFromSpec("fig8")
	runJobs(jobs, sc)
	cs := cells(jobs)
	return []Table{
		{ID: "fig8a", Title: "Memory bandwidth sensitivity: peak throughput", Metric: "mrps", Cells: cs},
		{ID: "fig8b", Title: "Memory bandwidth sensitivity: memory bandwidth", Metric: "gbps", Cells: cs},
	}
}

// fig9Depth is the queue pressure used for the collocated forwarder (DPDK's
// default processing batch).
const fig9Depth = 32

// Fig9 reproduces Figure 9: 12 L3fwd cores collocated with 12 X-Mem
// instances; (a) disjoint LLC partitions (A ways for DDIO+network, B=12-A
// for X-Mem), (b) X-Mem free to use the whole LLC while DDIO ways grow.
func Fig9(sc Scale) []Table {
	var jobs []job
	add := func(param string, ways int, cfg machine.Config) {
		for _, sw := range []bool{false, true} {
			v := DDIOVariant(ways, sw)
			jobs = append(jobs, job{param: param, variant: v.Name, cfg: v.Apply(cfg), closedLoopDepth: fig9Depth})
		}
	}
	// (a) disjoint partitions, via the scenario partition_split knob.
	for _, a := range []int{2, 4, 6, 8, 10} {
		add(fmt.Sprintf("(%d,%d)", a, 12-a), a, scenario.MustConfig("collocation",
			map[string]float64{"partition_split": float64(a)}))
	}
	nPartA := len(jobs)
	// (b) overlapping: X-Mem and the network cores may use all ways.
	for _, a := range []int{2, 4, 6, 8, 10, 12} {
		add(fmt.Sprintf("%d ways", a), a, CollocationConfig())
	}
	runJobs(jobs, sc)

	fig9a := Table{ID: "fig9a", Title: "Collocation, disjoint LLC partitions",
		Metric: "norm_mrps", Cells: cells(jobs[:nPartA])}
	fig9b := Table{ID: "fig9b", Title: "Collocation, overlapping LLC partitions",
		Metric: "norm_mrps", Cells: cells(jobs[nPartA:])}

	// Normalizations from the paper's axes: (a) to throughput and IPC at
	// (4,8) with Sweeper; (b) throughput to 2-way Sweeper, IPC to 6-way
	// Sweeper.
	normalize(&fig9a, "(4,8)", "DDIO 4 Ways + Sweeper", "(4,8)", "DDIO 4 Ways + Sweeper")
	normalize(&fig9b, "2 ways", "DDIO 2 Ways + Sweeper", "6 ways", "DDIO 6 Ways + Sweeper")
	return []Table{fig9a, fig9b}
}

func normalize(t *Table, mrpsParam, mrpsConfig, ipcParam, ipcConfig string) {
	mref, _ := t.Find(mrpsParam, mrpsConfig)
	iref, _ := t.Find(ipcParam, ipcConfig)
	for i := range t.Cells {
		c := &t.Cells[i]
		if mref.Mrps > 0 {
			*c = c.WithExtra("norm_mrps", c.Mrps/mref.Mrps)
		}
		if ipc := iref.Extra["xmem_ipc"]; ipc > 0 {
			*c = c.WithExtra("norm_ipc", c.Extra["xmem_ipc"]/ipc)
		}
	}
}

// Fig10 reproduces Figure 10: shallow vs deep buffering under service-time
// spikes — (a) drop-free peak throughput across ring depths, (b) drop rate
// as a function of arrival rate.
func Fig10(sc Scale) []Table {
	spiky := func(ring int, sweeper bool) machine.Config {
		cfg := KVSConfig(1024, ring)
		cfg.DDIOWays = 2
		cfg.SpikeProb = 0.01
		cfg = DDIOVariant(2, sweeper).Apply(cfg)
		return cfg
	}

	// (a) drop-free peak across buffer depths.
	rings := []int{128, 256, 512, 1024, 2048}
	type aJob struct {
		ring    int
		sweeper bool
		pk      PeakResult
	}
	var aJobs []aJob
	for _, r := range rings {
		aJobs = append(aJobs, aJob{ring: r}, aJob{ring: r, sweeper: true})
	}
	parallelFor(len(aJobs), sc, func(i int) {
		j := &aJobs[i]
		j.pk = DropFreePeak(spiky(j.ring, j.sweeper), sc)
	})
	fig10a := Table{ID: "fig10a", Title: "Drop-free peak vs buffer depth (spiky service)", Metric: "dropfree_peak_mrps"}
	for _, j := range aJobs {
		name := "Baseline"
		if j.sweeper {
			name = "Sweeper"
		}
		fig10a.Cells = append(fig10a.Cells,
			CellFromResults(fmt.Sprintf("%d buf", j.ring), name, j.pk.At).
				WithExtra("dropfree_peak_mrps", j.pk.PeakMrps))
	}

	// (b) drop rate vs arrival rate for shallow and deep rings.
	curves := []struct {
		name    string
		ring    int
		sweeper bool
	}{
		{"128 buffers", 128, false},
		{"2048 buffers", 2048, false},
		{"2048 + Sweeper", 2048, true},
	}
	rates := []float64{2, 4, 6, 8, 10, 12, 16, 20, 26, 32, 40, 52, 64}
	type bJob struct {
		curve int
		rate  float64
		res   machine.Results
	}
	var bJobs []bJob
	for ci := range curves {
		for _, rt := range rates {
			bJobs = append(bJobs, bJob{curve: ci, rate: rt})
		}
	}
	parallelFor(len(bJobs), sc, func(i int) {
		j := &bJobs[i]
		c := curves[j.curve]
		j.res = RunAtRate(spiky(c.ring, c.sweeper), j.rate, sc)
	})
	fig10b := Table{ID: "fig10b", Title: "Packet drop rate vs arrival rate (spiky service)", Metric: "drop_rate"}
	for _, j := range bJobs {
		fig10b.Cells = append(fig10b.Cells,
			CellFromResults(fmt.Sprintf("%.0f Mrps", j.rate), curves[j.curve].name, j.res).
				WithExtra("drop_rate", j.res.DropRate))
	}
	return []Table{fig10a, fig10b}
}

// Registry maps experiment ids to their harnesses (Fig6 is exposed through
// a wrapper that returns its summary panel).
func Registry() map[string]func(Scale) []Table {
	return map[string]func(Scale) []Table{
		"fig1": Fig1,
		"fig2": Fig2,
		"fig5": Fig5,
		"fig6": func(sc Scale) []Table {
			r := Fig6(sc)
			return []Table{r.Summary}
		},
		"fig7":  Fig7,
		"fig8":  Fig8,
		"fig9":  Fig9,
		"fig10": Fig10,
	}
}

// Names returns the registered experiment ids in order.
func Names() []string {
	r := Registry()
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
