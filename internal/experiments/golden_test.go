package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCSVs regenerates Figure 2's panels, Figure 6 (summary +
// latency CDFs), Figure 7's panels (the L3Fwd closed loop) and Figure 9's
// panels (forwarders collocated with X-Mem tenants, the only goldens with
// X-Mem cores and LLC way partitions) at the committed artifacts' fidelity
// and byte-compares the CSVs against results/. It is the end-to-end
// regression gate: any drift in the simulator, the scenario expansion, or
// the CSV writer shows up as a byte diff.
//
// Skipped under -short and under the race detector (the outputs are
// deterministic regardless of scheduling, so rerunning at 10x cost buys
// nothing).
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration takes about two minutes; skipped with -short")
	}
	if raceEnabled {
		t.Skip("outputs are scheduling-independent; skipped under -race")
	}

	sc := QuickScale() // the scale results/README.md documents
	dir := t.TempDir()
	for _, fig := range []func(Scale) []Table{Fig2, Fig7, Fig9} {
		for _, tb := range fig(sc) {
			writeGolden(t, dir, tb.ID+".csv", tb.WriteCSV)
		}
	}
	r := Fig6(sc)
	writeGolden(t, dir, "fig6.csv", r.Summary.WriteCSV)
	writeGolden(t, dir, "fig6_cdf.csv", func(w io.Writer) error { return WriteCDFCSV(w, r) })
	compareGoldens(t, dir, "fig2a.csv", "fig2b.csv", "fig2c.csv", "fig6.csv", "fig6_cdf.csv",
		"fig7a.csv", "fig7b.csv", "fig9a.csv", "fig9b.csv")
}

// TestGoldenSlowCSVs extends the golden gate to the figures too slow for
// the default `go test` budget: Figure 1's three panels (the only committed
// DMA rows) and Figure 8's two panels, 78 peak searches in all (about 6 min
// at two workers, 12 CPU-minutes). It is opt-in via SWEEPER_GOLDEN_SLOW,
// driven by `make golden-slow` and CI with an explicit -timeout.
func TestGoldenSlowCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 and fig8 regeneration is 78 peak searches; skipped with -short")
	}
	if raceEnabled {
		t.Skip("outputs are scheduling-independent; skipped under -race")
	}
	if os.Getenv("SWEEPER_GOLDEN_SLOW") == "" {
		t.Skip("~12 min single-core; set SWEEPER_GOLDEN_SLOW=1 (or run `make golden-slow`)")
	}

	sc := QuickScale()
	dir := t.TempDir()
	for _, fig := range []func(Scale) []Table{Fig1, Fig8} {
		for _, tb := range fig(sc) {
			writeGolden(t, dir, tb.ID+".csv", tb.WriteCSV)
		}
	}
	compareGoldens(t, dir, "fig1a.csv", "fig1b.csv", "fig1c.csv", "fig8a.csv", "fig8b.csv")
}

// writeGolden creates dir/name and fills it with emit.
func writeGolden(t *testing.T, dir, name string, emit func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := emit(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// compareGoldens byte-compares each regenerated dir/name with results/name.
func compareGoldens(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("regenerated %s differs from results/%s", name, name)
		}
	}
}
