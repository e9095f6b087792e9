package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sweeper/internal/experiments"
	"sweeper/internal/machine"
)

// fig7Golden is the committed Figure 7 CSV (header and rows).
func fig7Golden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../results/fig7a.csv")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// producedRow renders the D=250 DDIO 2 Ways cell as the benchmark does.
func producedRow(t *testing.T, mrps float64, dramP99 uint64) string {
	t.Helper()
	j := job{table: "fig7a", param: "D=250", variant: "DDIO 2 Ways"}
	r := machine.Results{ThroughputMrps: mrps, MemBWGBps: 86.3749, DRAMLatP99: dramP99}
	r.AccessesPerRequest[2] = 11.7315
	r.AccessesPerRequest[4] = 0.3523
	r.AccessesPerRequest[5] = 15.9553
	r.AccessesPerRequest[6] = 15.8568
	c := experiments.CellFromResults(j.param, j.variant, r).
		WithExtra("p99_dram", float64(r.DRAMLatP99)).
		WithExtra("xmem_ipc", r.XMemIPC)
	row, err := rowCSV(j.table, c)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestParseRows(t *testing.T) {
	rows, err := parseRows(fig7Golden(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("fig7a.csv parsed into %d rows, want 14", len(rows))
	}
	r := rows[0]
	if r["figure"] != "fig7a" || r["param"] != "D=250" || r["config"] != "DDIO 2 Ways" || r["mrps"] != "30.7456" {
		t.Errorf("first row = %v", r)
	}
	if _, err := parseRows(""); err == nil {
		t.Error("empty CSV parsed")
	}
}

func TestCompareRowAgainstCommittedGolden(t *testing.T) {
	golden := fig7Golden(t)
	if err := compareRow(producedRow(t, 30.7456, 1808), golden); err != nil {
		t.Errorf("row equal to the committed one rejected: %v", err)
	}
	err := compareRow(producedRow(t, 30.7457, 1808), golden)
	if err == nil || !strings.Contains(err.Error(), "mrps") {
		t.Errorf("changed mrps: err = %v", err)
	}
	if err := compareRow(producedRow(t, 30.7456, 1809), golden); err == nil {
		t.Error("changed p99_dram accepted")
	}
	other := strings.Replace(producedRow(t, 30.7456, 1808), "D=250", "D=300", 1)
	if err := compareRow(other, golden); err == nil || !strings.Contains(err.Error(), "no row") {
		t.Errorf("row missing from the golden: err = %v", err)
	}
}

func TestCompareRowRejectsColumnMismatch(t *testing.T) {
	golden := "figure,param,config,mrps\nfig7a,D=250,DDIO 2 Ways,30.7456\n"
	if err := compareRow(producedRow(t, 30.7456, 1808), golden); err == nil {
		t.Error("row with more columns than the golden accepted")
	}
}

func TestGoldenChecksApplyOnlyToTheGoldenSeed(t *testing.T) {
	w, _ := lookupWorkload("l3fwd-deep")
	g, err := loadGoldenChecks("..", w, goldenSeed+1, experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if g.csv != "" || g.digests != nil {
		t.Errorf("seed %d got references %+v", goldenSeed+1, g)
	}
	g, err = loadGoldenChecks("..", w, goldenSeed, experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if g.csv == "" || len(g.digests) != 7 {
		t.Fatalf("QuickScale seed 1: csv %d bytes, %d digests", len(g.csv), len(g.digests))
	}
	op := opResult{Row: producedRow(t, 30.7456, 1808), Digest: g.digests[0]}
	if err := g.check(0, op); err != nil {
		t.Errorf("matching row and digest rejected: %v", err)
	}
	op.Digest = "0"
	if err := g.check(0, op); err == nil {
		t.Error("wrong digest accepted")
	}
}

func TestDigestIsStableAndSensitive(t *testing.T) {
	a := machine.Results{ThroughputMrps: 1.25, Served: 10}
	d1, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := digest(a)
	a.Served++
	d3, _ := digest(a)
	if d1 != d2 || d1 == d3 {
		t.Errorf("digests %s %s %s", d1, d2, d3)
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadDefs) && w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadDefs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}
