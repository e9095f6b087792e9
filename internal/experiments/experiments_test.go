package experiments

import (
	"bytes"
	"encoding/csv"
	"io"
	"maps"
	"reflect"
	"strings"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/nic"
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

	v := DMAVariant()
	if got := v.Apply(cfg); got.NICMode != nic.ModeDMA || got.Sweeper.RXSweep {
		t.Fatal("DMA variant")
	}
	v = IdealVariant()
	if got := v.Apply(cfg); got.NICMode != nic.ModeIdeal {
		t.Fatal("ideal variant")
	}
	v = DDIOVariant(6, true)
	got := v.Apply(cfg)
	if got.NICMode != nic.ModeDDIO || got.DDIOWays != 6 || !got.Sweeper.RXSweep {
		t.Fatal("DDIO variant")
	}
	if v.Name != "DDIO 6 Ways + Sweeper" {
		t.Fatalf("name %q", v.Name)
	}
	if len(ddioPairs(2, 12)) != 4 {
		t.Fatal("ddioPairs")
	}
}

func TestConfigConstructors(t *testing.T) {
	kvs := KVSConfig(512, 2048)
	if kvs.ItemBytes != 512 || kvs.PacketBytes != 512 || kvs.RingSlots != 2048 {
		t.Fatal("KVS config")
	}
	if err := kvs.Validate(); err != nil {
		t.Fatal(err)
	}
	l3 := L3FwdConfig(1024)
	if l3.Workload != workload.NameL3Fwd || l3.TXSlots != 1024 {
		t.Fatal("L3fwd config: TX ring must mirror RX")
	}
	if err := l3.Validate(); err != nil {
		t.Fatal(err)
	}
	col := CollocationConfig()
	if col.NetCores != 12 || col.XMemCores != 12 {
		t.Fatal("collocation config")
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateProducesSLO(t *testing.T) {
	service, slo := Calibrate(KVSConfig(1024, 1024), tinyScale())
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
	cfg := KVSConfig(1024, 512)
	cfg = DDIOVariant(2, true).Apply(cfg)
	pk := PeakThroughput(cfg, tinyScale())
	if pk.PeakMrps <= 0 {
		t.Fatal("no feasible load found")
	}
	if pk.At.ReqLatP99 > pk.SLOCycles {
		t.Fatalf("reported peak violates SLO: p99 %d > %d", pk.At.ReqLatP99, pk.SLOCycles)
	}
	if pk.At.DropRate > maxDropRate {
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
	sc := tinyScale()
	base := KVSConfig(1024, 1024)

	type result struct {
		name string
		pk   PeakResult
	}
	variants := []Variant{DMAVariant(), DDIOVariant(2, false), IdealVariant()}
	results := make([]result, len(variants))
	parallelFor(len(variants), sc, func(i int) {
		results[i] = result{variants[i].Name, PeakThroughput(variants[i].Apply(base), sc)}
	})
	dma, ddio, ideal := results[0].pk, results[1].pk, results[2].pk
	// The paper's ordering: ideal >= DDIO >= DMA (with real margins, but
	// at tiny scale we only assert the direction).
	if !(ideal.PeakMrps >= ddio.PeakMrps && ddio.PeakMrps >= dma.PeakMrps) {
		t.Fatalf("ordering violated: dma=%.1f ddio=%.1f ideal=%.1f",
			dma.PeakMrps, ddio.PeakMrps, ideal.PeakMrps)
	}
}

func TestDropFreePeakRespectsDrops(t *testing.T) {
	cfg := KVSConfig(1024, 128)
	cfg.SpikeProb = 0.01
	cfg.SpikeMinCycles = 3_200
	cfg.SpikeMaxCycles = 320_000
	pk := DropFreePeak(cfg, tinyScale())
	if pk.PeakMrps <= 0 {
		t.Fatal("no drop-free load found")
	}
	if pk.At.Dropped != 0 {
		t.Fatal("drop-free peak dropped packets")
	}
}

func TestRunClosedLoopAndAtRate(t *testing.T) {
	cfg := L3FwdConfig(512)
	r := RunClosedLoop(cfg, 32, tinyScale())
	if r.Served == 0 {
		t.Fatal("closed loop idle")
	}
	r2 := RunAtRate(KVSConfig(1024, 512), 4, tinyScale())
	if r2.ThroughputMrps < 3 || r2.ThroughputMrps > 5 {
		t.Fatalf("RunAtRate throughput %.2f for 4 offered", r2.ThroughputMrps)
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
	cfg := KVSConfig(1024, 256)
	cfg.Seed += int64(unseen)
	sc := Scale{Warmup: 100_000, Measure: 100_000, Parallelism: 6}
	n := len(memoCopy())
	res := make([]machine.Results, sc.Parallelism)
	parallelFor(len(res), sc, func(i int) { res[i] = RunAtRate(cfg, 3, sc) })
	if added := len(memoCopy()) - n; added != 1 {
		t.Fatalf("%d identical runs made %d memo entries", len(res), added)
	}
	for i := range res {
		if len(res[i].DRAMLatCDF) == 0 || &res[i].DRAMLatCDF[0] != &res[0].DRAMLatCDF[0] {
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

func TestPeakSearchReportsZeroWhenInfeasible(t *testing.T) {
	// Every request suffers a ~100x-service spike, so p99 violates the
	// calibrated SLO at any load: the search must report a zero peak
	// rather than spin.
	cfg := KVSConfig(1024, 512)
	cfg.SpikeProb = 1.0
	cfg.SpikeMinCycles = 2_000_000
	cfg.SpikeMaxCycles = 2_000_001
	sc := Scale{Warmup: 300_000, Measure: 300_000, SearchIters: 1, Parallelism: 2}
	pk := PeakThroughput(cfg, sc)
	if pk.PeakMrps != 0 {
		t.Fatalf("peak = %.2f for an unservable workload", pk.PeakMrps)
	}
}

// TestPeakSearchStopsAtRateCap accepts every probe, so the search doubles
// until it reaches one arrival per cycle, the highest open-loop rate
// machine.Config.Validate accepts, and must stop there rather than probe
// past it.
func TestPeakSearchStopsAtRateCap(t *testing.T) {
	cfg := KVSConfig(1024, 512)
	sc := Scale{Warmup: 20_000, Measure: 20_000, SearchIters: 2, Parallelism: 1}
	always := func(uint64) feasibility { return func(machine.Results, float64) bool { return true } }
	pk := searchPeak(cfg, sc, 1000, always)
	if want := cfg.FreqHz / 1e6; pk.PeakMrps != want {
		t.Fatalf("peak = %g Mrps, want the %g Mrps cap", pk.PeakMrps, want)
	}
}

func TestDropFreeIgnoresSLO(t *testing.T) {
	// The §VI-F criterion gates on drops and stability only.
	ok := dropFree()
	var r machine.Results
	r.ReqLatP99 = 1 << 40 // terrible latency
	r.ThroughputMrps = 10
	if !ok(r, 10) {
		t.Fatal("latency must not gate the drop-free criterion")
	}
	r.Dropped = 1
	if ok(r, 10) {
		t.Fatal("drops must gate")
	}
	r.Dropped = 0
	r.ThroughputMrps = 5
	if ok(r, 10) {
		t.Fatal("instability must gate")
	}
}

func TestSLOFeasibleCriterion(t *testing.T) {
	ok := sloFeasible(1000)
	mk := func(p99 uint64, drop float64, served, offered float64) bool {
		var r machine.Results
		r.ReqLatP99 = p99
		r.DropRate = drop
		r.ThroughputMrps = served
		return ok(r, offered)
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
