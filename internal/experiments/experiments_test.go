package experiments

import (
	"bytes"
	"encoding/csv"
	"io"
	"maps"
	"math"
	"reflect"
	"strings"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/nic"
	"sweeper/internal/scenario"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

// tinyScale keeps experiment-harness tests fast; assertions target
// structure and direction, not converged magnitudes.
func tinyScale() Scale {
	return Scale{Warmup: 600_000, Measure: 400_000, SearchIters: 2, Parallelism: 4}
}

func TestScales(t *testing.T) {
	if FullScale().Warmup <= QuickScale().Warmup {
		t.Fatal("full scale must warm up longer than quick scale")
	}
	if (Scale{}).workers() < 1 {
		t.Fatal("workers")
	}
	if (Scale{Parallelism: 3}).workers() != 3 {
		t.Fatal("explicit parallelism")
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv("SWEEPER_WORKERS", "5")
	if got := (Scale{}).workers(); got != 5 {
		t.Fatalf("workers() = %d with SWEEPER_WORKERS=5", got)
	}
	if got := (Scale{Parallelism: 2}).workers(); got != 2 {
		t.Fatal("explicit Parallelism must beat the environment")
	}
	t.Setenv("SWEEPER_WORKERS", "not-a-number")
	if got := (Scale{}).workers(); got < 1 {
		t.Fatalf("workers() = %d with junk SWEEPER_WORKERS", got)
	}
}

func TestVariants(t *testing.T) {
	cfg := machine.DefaultConfig()

	v := Variant{Name: "DMA", Mode: nic.ModeDMA}
	if got := v.Apply(cfg); got.NICMode != nic.ModeDMA || got.DDIOWays != cfg.DDIOWays || got.Sweeper.RXSweep {
		t.Fatal("DMA variant")
	}
	v = DDIOVariant(6, true)
	got := v.Apply(cfg)
	if got.NICMode != nic.ModeDDIO || got.DDIOWays != 6 || !got.Sweeper.RXSweep {
		t.Fatal("DDIO variant")
	}
	if v.Name != "DDIO 6 Ways + Sweeper" {
		t.Fatalf("name %q", v.Name)
	}
}

// kvsConfig is the Table I KVS with 1KB items and ring RX buffers per core.
func kvsConfig(ring int) machine.Config {
	return scenario.MustConfig("kvs", map[string]float64{"ring_slots": float64(ring)})
}

// TestSpecCellsResolve checks, without simulating, that every cell
// CheckClaims and Fig6 measure names exactly one run of its builtin spec
// (specJobs panics otherwise), and that each position holds the
// configuration the code reading it by index expects: CheckClaims' seven
// SLO-searched 1KB KVS cells and its closed-loop forwarder, and Fig6's four
// searched 1024-buffer KVS cells led by the plain 2-way baseline whose peak
// sets the iso rate. A relabelled axis point or a reordered list fails here
// rather than deep inside a figure, or silently in a claim.
func TestSpecCellsResolve(t *testing.T) {
	type shape struct {
		workload string
		mode     nic.Mode
		ways     int // 0 where the mode ignores it
		sweeper  bool
		ring     int
		measure  string
	}
	const slo, closed = "SLO search", "closed loop"
	kvs, fwd, dma, ddio, ideal := workload.NameKVS, workload.NameL3Fwd, nic.ModeDMA, nic.ModeDDIO, nic.ModeIdeal
	for _, tc := range []struct {
		name  string
		cells []specCell
		want  []shape
	}{
		{"claims", claimCells, []shape{
			{kvs, dma, 0, false, 1024, slo},    // dma
			{kvs, ddio, 2, false, 1024, slo},   // ddio
			{kvs, ddio, 2, true, 1024, slo},    // sw
			{kvs, ideal, 0, false, 1024, slo},  // ideal
			{kvs, ddio, 2, true, 512, slo},     // sw512
			{kvs, ddio, 2, true, 2048, slo},    // sw2048
			{kvs, ddio, 2, false, 2048, slo},   // baseDeep
			{fwd, ddio, 2, true, 2048, closed}, // l3
		}},
		{"fig6", fig6Cells, []shape{
			{kvs, ddio, 2, false, 1024, slo}, // the iso-rate baseline
			{kvs, ddio, 2, true, 1024, slo},
			{kvs, ddio, 12, false, 1024, slo},
			{kvs, ddio, 12, true, 1024, slo},
		}},
	} {
		jobs := specJobs(tc.cells)
		if len(jobs) != len(tc.want) {
			t.Fatalf("%s: %d cells, want %d", tc.name, len(jobs), len(tc.want))
		}
		for i, j := range jobs {
			c := j.cfg
			got := shape{c.Workload, c.NICMode, c.DDIOWays, c.Sweeper.RXSweep, c.RingSlots, "other"}
			if c.NICMode != ddio {
				got.ways = 0
			}
			switch {
			case c.ClosedLoopDepth == 0 && j.search == &sloRule:
				got.measure = slo
			case c.ClosedLoopDepth > 0 && j.search == nil:
				got.measure = closed
			}
			if got != tc.want[i] || c.PacketBytes != 1024 {
				t.Errorf("%s[%d] (%s, %s) = %+v with %d B packets, want %+v with 1024 B",
					tc.name, i, j.param, j.variant, got, c.PacketBytes, tc.want[i])
			}
		}
	}
}

func TestConfigConstructors(t *testing.T) {
	col := CollocationConfig()
	if col.NetCores != 12 || col.XMemCores != 12 {
		t.Fatal("collocation config")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateProducesSLO(t *testing.T) {
	service, slo := Calibrate(kvsConfig(1024), tinyScale())
	if service <= 0 {
		t.Fatal("no service time measured")
	}
	if slo != uint64(service*SLOMultiple) {
		t.Fatal("SLO must be 100x mean service time")
	}
	// A KVS request at trickle load costs hundreds of cycles, not tens
	// of thousands.
	if service < 100 || service > 50_000 {
		t.Fatalf("implausible service time %.0f", service)
	}
}

func TestPeakThroughputFindsFeasiblePoint(t *testing.T) {
	cfg := DDIOVariant(2, true).Apply(kvsConfig(512))
	pk := PeakThroughput(cfg, tinyScale())
	if pk.PeakMrps <= 0 {
		t.Fatal("no feasible load found")
	}
	if pk.At.ReqLatP99 > pk.SLOCycles {
		t.Fatalf("reported peak violates SLO: p99 %d > %d", pk.At.ReqLatP99, pk.SLOCycles)
	}
	if pk.At.DropRate > sloRule.maxDropRate {
		t.Fatal("reported peak drops packets")
	}
	if pk.At.ThroughputMrps < 0.9*pk.PeakMrps {
		t.Fatalf("throughput %.1f far below offered %.1f", pk.At.ThroughputMrps, pk.PeakMrps)
	}
	// A repeated search replays every run from the memo.
	n := len(memoCopy())
	if again := PeakThroughput(cfg, tinyScale()); !reflect.DeepEqual(again, pk) || len(memoCopy()) != n {
		t.Fatal("a repeated search must return the first's result and simulate nothing")
	}
}

func TestPeakOrderingAcrossBaselines(t *testing.T) {
	jobs := specJobs([]specCell{
		{"fig1", "1024 buf", "DMA"},
		{"fig1", "1024 buf", "DDIO 2 Ways"},
		{"fig1", "1024 buf", "Ideal DDIO"},
	})
	runJobs(jobs, tinyScale())
	dma, ddio, ideal := jobs[0].pk, jobs[1].pk, jobs[2].pk
	// The paper's ordering: ideal >= DDIO >= DMA (with real margins, but
	// at tiny scale we only assert the direction).
	if !(ideal.PeakMrps >= ddio.PeakMrps && ddio.PeakMrps >= dma.PeakMrps) {
		t.Fatalf("ordering violated: dma=%.1f ddio=%.1f ideal=%.1f",
			dma.PeakMrps, ddio.PeakMrps, ideal.PeakMrps)
	}
}

func TestDropFreePeakRespectsDrops(t *testing.T) {
	cfg := kvsConfig(128)
	cfg.SpikeProb = 0.01
	jobs := []job{{cfg: cfg, search: &dropFreeRule}}
	runJobs(jobs, tinyScale())
	pk := jobs[0].pk
	if pk.PeakMrps <= 0 {
		t.Fatal("no drop-free load found")
	}
	if pk.At.Dropped != 0 {
		t.Fatal("drop-free peak dropped packets")
	}
}

// TestRunClosedLoopAndAtRate runs the two single-run jobs: a closed loop and
// an open loop at a fixed rate. A closed loop ignores the open loop's rate,
// so a job runs its configuration as it stands.
func TestRunClosedLoopAndAtRate(t *testing.T) {
	closed := scenario.MustConfig("l3fwd", map[string]float64{"ring_slots": 512, "tx_slots": 512, "closed_loop_depth": 32})
	otherRate := closed
	otherRate.OfferedMrps++
	atRate := kvsConfig(512)
	atRate.OfferedMrps = 4
	jobs := []job{{cfg: closed}, {cfg: atRate}, {cfg: otherRate}}
	runJobs(jobs, tinyScale())
	if jobs[0].pk.At.Served == 0 {
		t.Fatal("closed loop idle")
	}
	if !reflect.DeepEqual(jobs[2].pk.At, jobs[0].pk.At) {
		t.Fatal("a closed loop's Results depend on OfferedMrps")
	}
	if got := jobs[1].pk.At.ThroughputMrps; got < 3 || got > 5 {
		t.Fatalf("throughput %.2f for 4 offered", got)
	}
	for _, j := range jobs {
		if j.pk.PeakMrps != 0 || j.pk.SLOCycles != 0 {
			t.Fatalf("a single run reported a search: %+v", j.pk)
		}
	}
}

// unseen makes the memo tests' keys new on every run, so that they also
// hold under go test -count.
var unseen uint64

// memoCopy returns a copy of runOnce's memo.
func memoCopy() map[runKey]*runEntry {
	memoMu.Lock()
	defer memoMu.Unlock()
	return maps.Clone(memo)
}

// TestMemoMatchesFreshRuns renders Fig6, whose peak and iso curves share
// memoized Results, and then checks that every run it memoized still equals
// a fresh machine's: no figure or renderer writes through a shared
// DRAMLatCDF.
func TestMemoMatchesFreshRuns(t *testing.T) {
	unseen++
	sc := tinyScale()
	sc.Measure += unseen
	before := memoCopy()
	r := Fig6(sc)
	RenderCDFChart(io.Discard, r.Curves)
	r.Summary.RenderDefault(io.Discard)
	if err := WriteCDFCSV(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	after := memoCopy()
	if len(after) == len(before) {
		t.Fatal("Fig6 memoized no runs")
	}
	for k, e := range after {
		if before[k] == nil && !reflect.DeepEqual(machine.MustNew(k.cfg).Run(k.warmup, k.measure), e.r) {
			t.Errorf("memoized run at %.2f Mrps differs from a fresh run", k.cfg.OfferedMrps)
		}
	}
}

// TestConcurrentRunsSimulateOnce issues identical runs from concurrent
// workers: they must all receive one simulation's Results, backing array
// included.
func TestConcurrentRunsSimulateOnce(t *testing.T) {
	unseen++
	cfg := kvsConfig(256)
	cfg.Seed += int64(unseen)
	cfg.OfferedMrps = 3
	sc := Scale{Warmup: 100_000, Measure: 100_000, Parallelism: 6}
	n := len(memoCopy())
	jobs := make([]job, sc.Parallelism)
	for i := range jobs {
		jobs[i].cfg = cfg
	}
	runJobs(jobs, sc)
	if added := len(memoCopy()) - n; added != 1 {
		t.Fatalf("%d identical runs made %d memo entries", len(jobs), added)
	}
	for i, j := range jobs {
		if len(j.pk.At.DRAMLatCDF) == 0 || &j.pk.At.DRAMLatCDF[0] != &jobs[0].pk.At.DRAMLatCDF[0] {
			t.Fatalf("run %d did not share the first run's Results", i)
		}
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	done := make([]bool, 37)
	parallelFor(len(done), Scale{Parallelism: 5}, func(i int) { done[i] = true })
	for i, d := range done {
		if !d {
			t.Fatalf("index %d not executed", i)
		}
	}
	// Serial path.
	n := 0
	parallelFor(3, Scale{Parallelism: 1}, func(int) { n++ })
	if n != 3 {
		t.Fatal("serial path")
	}
}

func TestTableOperations(t *testing.T) {
	tbl := Table{ID: "figX", Title: "test", Metric: "mrps"}
	tbl.Cells = append(tbl.Cells,
		Cell{Param: "p1", Config: "A", Mrps: 1, GBps: 10},
		Cell{Param: "p1", Config: "B", Mrps: 2, GBps: 20},
		Cell{Param: "p2", Config: "A", Mrps: 3, GBps: 30},
	)
	if got := tbl.Params(); len(got) != 2 || got[0] != "p1" {
		t.Fatalf("Params = %v", got)
	}
	if got := tbl.Configs(); len(got) != 2 || got[1] != "B" {
		t.Fatalf("Configs = %v", got)
	}
	c, ok := tbl.Find("p2", "A")
	if !ok || c.Mrps != 3 {
		t.Fatal("Find")
	}
	if _, ok := tbl.Find("p3", "A"); ok {
		t.Fatal("Find invented a cell")
	}

	var buf bytes.Buffer
	tbl.Render(&buf, "mrps")
	out := buf.String()
	for _, want := range []string{"figX", "p1", "p2", "A", "B", "1.00", "3.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	tbl.RenderBreakdown(&buf)
	if !strings.Contains(buf.String(), "RX Evct") {
		t.Fatal("breakdown header missing")
	}

	buf.Reset()
	tbl.RenderDefault(&buf)
	if !strings.Contains(buf.String(), "[mrps]") {
		t.Fatal("default view")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{ID: "figX"}
	cell := Cell{Param: "p", Config: "c", Mrps: 1.5, GBps: 2.5}
	cell.Breakdown[stats.RXEvct] = 4.25
	cell = cell.WithExtra("zzz", 9).WithExtra("aaa", 8)
	// fig9a's params hold a comma, so the writer must quote them.
	tbl.Cells = append(tbl.Cells, cell, Cell{Param: "(2,10)", Config: "c"})

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	header := lines[0]
	if !strings.Contains(header, "acc_rx_evct") {
		t.Fatalf("header %q", header)
	}
	// Extras sorted alphabetically at the end.
	if !strings.HasSuffix(header, "aaa,zzz") {
		t.Fatalf("extras not sorted: %q", header)
	}
	if !strings.Contains(lines[1], "4.2500") {
		t.Fatalf("row %q", lines[1])
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("csv does not read back: %v", err)
	}
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d has %d fields under a %d-column header", i, len(r), len(rows[0]))
		}
	}
	if rows[2][1] != "(2,10)" {
		t.Fatalf("param read back as %q", rows[2][1])
	}
}

// TestTableCSVMissingExtra: cells lacking an Extra key present elsewhere in
// the table must emit an empty field, not a fake 0.0000.
func TestTableCSVMissingExtra(t *testing.T) {
	tbl := Table{ID: "figY"}
	full := Cell{Param: "p1", Config: "c"}.WithExtra("aaa", 1).WithExtra("zzz", 2)
	partial := Cell{Param: "p2", Config: "c"}.WithExtra("zzz", 3)
	tbl.Cells = append(tbl.Cells, full, partial)

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasSuffix(lines[1], "1.0000,2.0000") {
		t.Fatalf("full row %q", lines[1])
	}
	// aaa is missing from the second cell: empty field, then zzz.
	if !strings.HasSuffix(lines[2], ",,3.0000") {
		t.Fatalf("partial row %q (want empty aaa field)", lines[2])
	}
}

func TestCellFromResults(t *testing.T) {
	var r machine.Results
	r.ThroughputMrps = 7
	r.MemBWGBps = 13
	r.AccessesPerRequest[stats.RXEvct] = 2
	c := CellFromResults("p", "cfg", r)
	if c.Mrps != 7 || c.GBps != 13 || c.Breakdown[stats.RXEvct] != 2 {
		t.Fatal("cell mapping")
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"fig1", "fig10", "fig2", "fig5",
		"fig6", "fig7", "fig8", "fig9"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
	reg := Registry()
	for _, n := range names {
		if reg[n] == nil {
			t.Fatalf("nil harness for %s", n)
		}
	}
}

func TestNormalize(t *testing.T) {
	tbl := Table{Cells: []Cell{
		CellFromResults("a", "X", machine.Results{ThroughputMrps: 10}).WithExtra("xmem_ipc", 2),
		CellFromResults("b", "X", machine.Results{ThroughputMrps: 5}).WithExtra("xmem_ipc", 1),
	}}
	normalize(&tbl, "a", "X", "a", "X")
	if tbl.Cells[1].Extra["norm_mrps"] != 0.5 || tbl.Cells[1].Extra["norm_ipc"] != 0.5 {
		t.Fatalf("normalize: %+v", tbl.Cells[1].Extra)
	}
}

func TestRatioHelper(t *testing.T) {
	if ratio(2, 1) != "2.00x" {
		t.Fatal("ratio")
	}
	if ratio(1, 0) != "n/a" {
		t.Fatal("ratio zero denominator")
	}
}

// TestPeakSearchReportsZeroWhenInfeasible rejects every probe (no probe serves
// an infinite share of its load), so the search halves its rate until it
// falls below its floor, and must report a zero peak there rather than spin.
func TestPeakSearchReportsZeroWhenInfeasible(t *testing.T) {
	sc := Scale{Warmup: 20_000, Measure: 20_000, SearchIters: 1, Parallelism: 1}
	pk := searchPeak(kvsConfig(512), sc, rule{minServed: math.Inf(1)})
	if pk.PeakMrps != 0 {
		t.Fatalf("peak = %.2f Mrps with every probe rejected", pk.PeakMrps)
	}
	if pk.At.MeasuredCycles != sc.Measure {
		t.Fatalf("At holds no probe: %+v", pk.At)
	}
}

// TestPeakSearchStopsAtRateCap accepts every probe (no probe drops more than
// all of its arrivals), so the search doubles until it reaches one arrival
// per cycle, the highest open-loop rate machine.Config.Validate accepts, and
// must stop there rather than probe past it.
func TestPeakSearchStopsAtRateCap(t *testing.T) {
	sc := Scale{Warmup: 20_000, Measure: 20_000, SearchIters: 2, Parallelism: 1}
	pk := searchPeak(kvsConfig(512), sc, rule{maxDropRate: 1})
	if want := machine.FreqHz / 1e6; pk.PeakMrps != want {
		t.Fatalf("peak = %g Mrps, want the %g Mrps cap", pk.PeakMrps, want)
	}
}

func TestDropFreeIgnoresSLO(t *testing.T) {
	// The §VI-F criterion gates on drops and stability only.
	const slo = 1000
	var r machine.Results
	r.ReqLatP99 = 1 << 40 // terrible latency
	r.ThroughputMrps = 10
	r.Offered = 1_000_000
	if !dropFreeRule.accepts(r, 10, slo) {
		t.Fatal("latency must not gate the drop-free criterion")
	}
	r.Dropped = 1
	r.DropRate = float64(r.Dropped) / float64(r.Offered)
	if dropFreeRule.accepts(r, 10, slo) {
		t.Fatal("drops must gate")
	}
	r.Dropped, r.DropRate = 0, 0
	r.ThroughputMrps = 5
	if dropFreeRule.accepts(r, 10, slo) {
		t.Fatal("instability must gate")
	}
}

func TestSLOFeasibleCriterion(t *testing.T) {
	mk := func(p99 uint64, drop float64, served, offered float64) bool {
		var r machine.Results
		r.ReqLatP99 = p99
		r.DropRate = drop
		r.ThroughputMrps = served
		return sloRule.accepts(r, offered, 1000)
	}
	if !mk(900, 0, 10, 10) {
		t.Fatal("healthy point rejected")
	}
	if mk(1100, 0, 10, 10) {
		t.Fatal("SLO violation accepted")
	}
	if mk(900, 0.01, 10, 10) {
		t.Fatal("drops accepted")
	}
	if mk(900, 0, 9, 10) {
		t.Fatal("unstable point accepted")
	}
}
