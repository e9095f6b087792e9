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

// job is one (param, variant) cell of a figure: a final configuration (the
// variant is already applied, and variant is only its display name) and how
// the cell is measured.
type job struct {
	param   string
	variant string
	cfg     machine.Config
	// search, when set, finds cfg's peak open-loop rate under that rule. A
	// job without one runs cfg once: its closed loop when
	// cfg.ClosedLoopDepth > 0, else open loop at cfg.OfferedMrps.
	search *rule
	// pk is what runJobs measured: a search's peak, or a single run's
	// Results in At.
	pk PeakResult
}

// runJobs measures every job on the scale's worker budget. It is the only
// place where the harness runs a cell.
func runJobs(jobs []job, sc Scale) {
	parallelFor(len(jobs), sc, func(i int) {
		j := &jobs[i]
		if j.search != nil {
			j.pk = searchPeak(j.cfg, sc, *j.search)
		} else {
			j.pk = PeakResult{At: runOnce(j.cfg, sc.Warmup, sc.Measure)}
		}
	})
}

// cells renders measured jobs as table cells: a search's cell adds its
// offered peak, SLO and p99, a closed loop's its DRAM p99 and X-Mem IPC.
func cells(jobs []job) []Cell {
	out := make([]Cell, len(jobs))
	for i, j := range jobs {
		c := CellFromResults(j.param, j.variant, j.pk.At)
		if j.search != nil {
			c = c.WithExtra("peak_offered_mrps", j.pk.PeakMrps).
				WithExtra("slo_cycles", float64(j.pk.SLOCycles)).
				WithExtra("p99_req", float64(j.pk.At.ReqLatP99))
		} else {
			c = c.WithExtra("p99_dram", float64(j.pk.At.DRAMLatP99)).
				WithExtra("xmem_ipc", j.pk.At.XMemIPC)
		}
		out[i] = c
	}
	return out
}

// jobsFromSpec expands a shipped scenario into the harness's job list: axes
// outermost, variants innermost, parameter labels joined with "/". An
// open-loop run becomes an SLO peak search.
func jobsFromSpec(name string) []job {
	runs, err := scenario.MustSpec(name).Expand()
	if err != nil {
		panic(err)
	}
	jobs := make([]job, len(runs))
	for i, r := range runs {
		jobs[i] = job{param: r.Param, variant: r.Variant.DisplayName(), cfg: r.Config}
		if r.Config.ClosedLoopDepth == 0 {
			jobs[i].search = &sloRule
		}
	}
	return jobs
}

// specCell names one run of a builtin spec by its table labels.
type specCell struct{ spec, param, variant string }

// specJobs returns the jobs of the spec runs the cells name, in order, so
// that a figure or claim measures exactly what the figure that owns each
// cell does. It panics unless every cell names exactly one run.
func specJobs(cs []specCell) []job {
	var jobs []job
	for _, c := range cs {
		n := len(jobs)
		for _, j := range jobsFromSpec(c.spec) {
			if j.param == c.param && j.variant == c.variant {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) != n+1 {
			panic(fmt.Sprintf("experiments: spec %s has %d runs at (%q, %q), want 1",
				c.spec, len(jobs)-n, c.param, c.variant))
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

// fig6Cells are Figure 6's configurations, Figure 5's 1KB items with 1024
// buffers per core: 2- and 12-way DDIO, each without and with Sweeper. The
// first is the baseline whose peak sets the iso-throughput rate.
var fig6Cells = []specCell{
	{"fig5", "1024B/1024 buf", "DDIO 2 Ways"},
	{"fig5", "1024B/1024 buf", "DDIO 2 Ways + Sweeper"},
	{"fig5", "1024B/1024 buf", "DDIO 12 Ways"},
	{"fig5", "1024B/1024 buf", "DDIO 12 Ways + Sweeper"},
}

// Fig6 reproduces Figure 6: DRAM access latency CDFs for 2- and 12-way
// DDIO with and without Sweeper — left at each configuration's own peak,
// right at iso-throughput (the 2-way baseline's peak).
func Fig6(sc Scale) Fig6Result {
	peak := specJobs(fig6Cells)
	runJobs(peak, sc)

	isoRate := peak[0].pk.PeakMrps // plain 2-way DDIO's achieved peak
	iso := make([]job, len(peak))
	for i, j := range peak {
		peak[i].param = "peak"
		iso[i] = job{param: fmt.Sprintf("iso %.0fMrps", isoRate), variant: j.variant, cfg: j.cfg}
		iso[i].cfg.OfferedMrps = isoRate
	}
	runJobs(iso, sc)

	out := Fig6Result{Summary: Table{
		ID:     "fig6",
		Title:  "DRAM access latency (KVS, 1KB items, 1024 buf/core)",
		Metric: "dram_mean",
	}}
	for i, j := range append(peak, iso...) {
		context := "peak"
		if i >= len(peak) {
			context = "iso"
		}
		r := j.pk.At
		out.Curves = append(out.Curves, LatencyCurve{
			Config: j.variant, Context: context, AtMrps: r.ThroughputMrps,
			Mean: r.DRAMLatMean, P50: r.DRAMLatP50, P99: r.DRAMLatP99,
			CDF: r.DRAMLatCDF,
		})
		out.Summary.Cells = append(out.Summary.Cells,
			CellFromResults(j.param, j.variant, r).
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
			j := job{param: param, variant: v.Name, cfg: v.Apply(cfg)}
			j.cfg.ClosedLoopDepth = fig9Depth
			jobs = append(jobs, j)
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
	// spiky is the Table I KVS (1KB items) under 2-way DDIO, with §VI-F's
	// service-time spikes on 1% of requests.
	spiky := func(ring int, sweeper bool) machine.Config {
		return DDIOVariant(2, sweeper).Apply(scenario.MustConfig("kvs", map[string]float64{
			"ring_slots": float64(ring),
			"spike_prob": 0.01,
		}))
	}

	// (a) drop-free peak across buffer depths.
	var jobs []job
	for _, ring := range []int{128, 256, 512, 1024, 2048} {
		param := fmt.Sprintf("%d buf", ring)
		jobs = append(jobs,
			job{param: param, variant: "Baseline", cfg: spiky(ring, false), search: &dropFreeRule},
			job{param: param, variant: "Sweeper", cfg: spiky(ring, true), search: &dropFreeRule})
	}
	nA := len(jobs)

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
	for _, c := range curves {
		for _, rate := range []float64{2, 4, 6, 8, 10, 12, 16, 20, 26, 32, 40, 52, 64} {
			j := job{param: fmt.Sprintf("%.0f Mrps", rate), variant: c.name, cfg: spiky(c.ring, c.sweeper)}
			j.cfg.OfferedMrps = rate
			jobs = append(jobs, j)
		}
	}
	runJobs(jobs, sc)

	fig10a := Table{ID: "fig10a", Title: "Drop-free peak vs buffer depth (spiky service)", Metric: "dropfree_peak_mrps"}
	for _, j := range jobs[:nA] {
		fig10a.Cells = append(fig10a.Cells,
			CellFromResults(j.param, j.variant, j.pk.At).WithExtra("dropfree_peak_mrps", j.pk.PeakMrps))
	}
	fig10b := Table{ID: "fig10b", Title: "Packet drop rate vs arrival rate (spiky service)", Metric: "drop_rate"}
	for _, j := range jobs[nA:] {
		fig10b.Cells = append(fig10b.Cells,
			CellFromResults(j.param, j.variant, j.pk.At).WithExtra("drop_rate", j.pk.At.DropRate))
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
