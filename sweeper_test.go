package sweeper_test

import (
	"bytes"
	"strings"
	"testing"

	"sweeper"
)

func TestFacadeRun(t *testing.T) {
	cfg := sweeper.DefaultConfig()
	cfg.OfferedMrps = 6
	r := sweeper.Run(cfg, 500_000, 400_000)
	if r.Served == 0 || r.ThroughputMrps <= 0 {
		t.Fatalf("facade run produced no work: %+v", r.Served)
	}
}

func TestFacadeEnableSweeper(t *testing.T) {
	cfg := sweeper.DefaultConfig()
	sweeper.EnableSweeper(&cfg)
	if !cfg.Sweeper.RXSweep {
		t.Fatal("EnableSweeper")
	}
	sweeper.EnableTXSweep(&cfg)
	if !cfg.Sweeper.TXSweep {
		t.Fatal("EnableTXSweep")
	}

	// Enabling RX sweeping keeps the instruction and TX sweeping already
	// selected.
	cfg = sweeper.DefaultConfig()
	cfg.Sweeper.Insn = "simf"
	sweeper.EnableTXSweep(&cfg)
	sweeper.EnableSweeper(&cfg)
	if !cfg.Sweeper.RXSweep || !cfg.Sweeper.TXSweep || cfg.Sweeper.Insn != "simf" {
		t.Fatalf("EnableSweeper clobbered the Sweeper config: %+v", cfg.Sweeper)
	}
}

func TestFacadeNewValidates(t *testing.T) {
	cfg := sweeper.DefaultConfig()
	cfg.NetCores = 0
	if _, err := sweeper.New(cfg); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func TestFacadeModesAndWorkloads(t *testing.T) {
	cfg := sweeper.DefaultConfig()
	cfg.NICMode = sweeper.ModeIdeal
	cfg.Workload = sweeper.WorkloadKVS
	if _, err := sweeper.New(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.NICMode = sweeper.ModeDMA
	cfg.Workload = sweeper.WorkloadL3Fwd
	cfg.ItemBytes = 0
	if _, err := sweeper.New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	names := sweeper.ExperimentNames()
	if len(names) != 10 {
		t.Fatalf("experiments = %v", names)
	}
	reg := sweeper.Experiments()
	for _, n := range names {
		if reg[n] == nil {
			t.Fatalf("missing %s", n)
		}
	}
}

func TestFacadeRenderTables(t *testing.T) {
	tbl := sweeper.Table{ID: "x", Title: "t", Metric: "mrps",
		Cells: []sweeper.Cell{{Param: "p", Config: "c", Mrps: 1}}}
	var buf bytes.Buffer
	sweeper.RenderTables(&buf, []sweeper.Table{tbl})
	if !strings.Contains(buf.String(), "1.00") {
		t.Fatal("render")
	}
}

func TestFacadeScales(t *testing.T) {
	if sweeper.FullScale().Measure <= sweeper.QuickScale().Measure {
		t.Fatal("scales")
	}
}
