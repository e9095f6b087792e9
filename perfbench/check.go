package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sweeper/internal/experiments"
	"sweeper/internal/machine"
)

// The outputs check. Every operation's simulated outputs are digested; all
// units of a run must agree on every digest (the simulator is deterministic
// in its seed), and with the goldens' seed the figure rows must equal the
// committed results/ rows and the digests the reference kept beside the
// benchmark (reference.json).

// goldenSeed is the seed the committed results were generated with.
const goldenSeed = 1

// digest is the SHA-256 of v's JSON encoding. encoding/json writes struct
// fields in declaration order and floats in their shortest exact form, so
// equal digests mean equal outputs.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// rowCSV renders one cell as its figure panel's CSV: header line, row line.
func rowCSV(table string, c experiments.Cell) (string, error) {
	t := experiments.Table{ID: table, Cells: []experiments.Cell{c}}
	var b bytes.Buffer
	if err := t.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// finishOp digests out, renders the row and folds every error into op.
func finishOp(j job, out any, c experiments.Cell, err error) opResult {
	op := opResult{Name: j.name()}
	if err == nil {
		op.Digest, err = digest(out)
	}
	if err == nil {
		op.Row, err = rowCSV(j.table, c)
	}
	if err != nil {
		op.Err = err.Error()
	}
	return op
}

// searchOp is a peak search's outcome; its row carries the extra columns
// experiments.Fig5 adds to a search cell.
func searchOp(j job, pk experiments.PeakResult, err error) opResult {
	if err == nil {
		err = checkPeak(pk)
	}
	c := experiments.CellFromResults(j.param, j.variant, pk.At).
		WithExtra("peak_offered_mrps", pk.PeakMrps).
		WithExtra("slo_cycles", float64(pk.SLOCycles)).
		WithExtra("p99_req", float64(pk.At.ReqLatP99))
	return finishOp(j, pk, c, err)
}

// cellOp is a closed-loop cell's outcome, with Figure 7's extra columns.
func cellOp(j job, r machine.Results, err error) opResult {
	if err == nil {
		err = checkCell(j, r)
	}
	c := experiments.CellFromResults(j.param, j.variant, r).
		WithExtra("p99_dram", float64(r.DRAMLatP99)).
		WithExtra("xmem_ipc", r.XMemIPC)
	return finishOp(j, r, c, err)
}

// checkPeak holds for any seed: a found peak meets the search's own SLO
// criterion (experiments.sloFeasible).
func checkPeak(pk experiments.PeakResult) error {
	r := pk.At
	switch {
	case pk.PeakMrps <= 0 || r.Served == 0:
		return fmt.Errorf("no feasible peak found")
	case r.ReqLatP99 > pk.SLOCycles:
		return fmt.Errorf("peak p99 %d cycles exceeds the SLO %d", r.ReqLatP99, pk.SLOCycles)
	case r.DropRate > 1e-3:
		return fmt.Errorf("peak drop rate %g exceeds 1e-3", r.DropRate)
	case r.ThroughputMrps < 0.95*pk.PeakMrps:
		return fmt.Errorf("peak throughput %.4f Mrps below 95%% of offered %.4f", r.ThroughputMrps, pk.PeakMrps)
	}
	return nil
}

// checkCell holds for any seed: a closed loop serves, never drops, and
// sweeps exactly when Sweeper is on; tenants run where configured.
func checkCell(j job, r machine.Results) error {
	switch {
	case r.Served == 0 || r.ThroughputMrps <= 0:
		return fmt.Errorf("served nothing")
	case r.Dropped != 0:
		return fmt.Errorf("closed loop dropped %d packets", r.Dropped)
	case j.cfg.Sweeper.RXSweep != (r.Sweeper.SweptLines > 0):
		return fmt.Errorf("Sweeper %v but %d lines swept", j.cfg.Sweeper.RXSweep, r.Sweeper.SweptLines)
	case (j.cfg.XMemCores > 0) != (r.XMemAccesses > 0):
		return fmt.Errorf("%d tenant cores made %d accesses", j.cfg.XMemCores, r.XMemAccesses)
	}
	return nil
}

// parseRows parses CSV text with a header line into one column->value map
// per row.
func parseRows(text string) ([]map[string]string, error) {
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty CSV")
	}
	head := recs[0]
	rows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := make(map[string]string, len(head))
		for i, col := range head {
			row[col] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// compareRow checks a produced figure row (rowCSV output) against the
// committed CSV text: the golden row with the same figure, param and config
// must hold the same value in every column.
func compareRow(produced, golden string) error {
	got, err := parseRows(produced)
	if err != nil || len(got) != 1 {
		return fmt.Errorf("bad produced row %q: %v", produced, err)
	}
	rows, err := parseRows(golden)
	if err != nil {
		return fmt.Errorf("golden CSV: %w", err)
	}
	g := got[0]
	for _, want := range rows {
		if want["figure"] != g["figure"] || want["param"] != g["param"] || want["config"] != g["config"] {
			continue
		}
		if len(want) != len(g) {
			return fmt.Errorf("%s %s: %d columns, golden has %d", g["param"], g["config"], len(g), len(want))
		}
		for col, v := range want {
			if g[col] != v {
				return fmt.Errorf("%s %s: %s = %s, golden %s", g["param"], g["config"], col, g[col], v)
			}
		}
		return nil
	}
	return fmt.Errorf("golden CSV has no row %s,%s,%s", g["figure"], g["param"], g["config"])
}

// referenceKey names a reference digest: workload, seed and simulation
// effort.
func referenceKey(w string, seed int64, sc experiments.Scale) string {
	return fmt.Sprintf("%s seed=%d warmup=%d measure=%d iters=%d", w, seed, sc.Warmup, sc.Measure, sc.SearchIters)
}

// loadReference reads the reference digests: key -> one digest per op.
func loadReference(path string) (map[string][]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ref := map[string][]string{}
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// goldenChecks are the committed references a run's ops must match: the
// results/ rows (golden seed at QuickScale) and the reference digests
// (golden seed, at any effort reference.json lists).
type goldenChecks struct {
	csv     string   // committed results/ CSV text, "" when none applies
	digests []string // reference digests, nil when none applies
}

// loadGoldenChecks loads the references that apply to workload w under this
// seed and effort from the checkout at root.
func loadGoldenChecks(root string, w workloadDef, seed int64, sc experiments.Scale) (goldenChecks, error) {
	var g goldenChecks
	if seed != goldenSeed {
		return g, nil
	}
	quick := experiments.QuickScale()
	if w.golden != "" && sc.Warmup == quick.Warmup && sc.Measure == quick.Measure && sc.SearchIters == quick.SearchIters {
		b, err := os.ReadFile(filepath.Join(root, "results", w.golden))
		if err != nil {
			return g, err
		}
		g.csv = string(b)
	}
	ref, err := loadReference(filepath.Join(root, "perfbench", "reference.json"))
	if err != nil {
		return g, err
	}
	g.digests = ref[referenceKey(w.name, seed, sc)]
	return g, nil
}

// check returns why op i fails the committed references, or nil.
func (g goldenChecks) check(i int, op opResult) error {
	if g.csv != "" {
		if err := compareRow(op.Row, g.csv); err != nil {
			return err
		}
	}
	if g.digests != nil {
		if i >= len(g.digests) || g.digests[i] != op.Digest {
			return fmt.Errorf("outputs digest %s differs from the reference", op.Digest)
		}
	}
	return nil
}
