package obs_test

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/obs"
)

// TestObsSmoke validates a full set of exporter artifacts. When
// SWEEPER_OBS_DIR is set (the `make obs-smoke` path), it checks the
// metrics.csv, trace.json and manifest.json the sweepersim CLI wrote there;
// otherwise it generates its own set from a short default-config run, so the
// test also guards the exporters under plain `go test`.
func TestObsSmoke(t *testing.T) {
	dir := os.Getenv("SWEEPER_OBS_DIR")
	if dir == "" {
		dir = t.TempDir()
		generateArtifacts(t, dir)
	}

	metrics := readFile(t, filepath.Join(dir, "metrics.csv"))
	rows, err := csv.NewReader(strings.NewReader(metrics)).ReadAll()
	if err != nil {
		t.Fatalf("metrics.csv does not parse as CSV: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("metrics.csv has %d rows, want a header plus at least 2 samples", len(rows))
	}
	if rows[0][0] != "cycle" || len(rows[0]) < 10 {
		t.Fatalf("metrics.csv header looks wrong: %v", rows[0])
	}
	for _, col := range []string{"mem.reads", "nic.ring_occupancy", "cpu.served"} {
		if !contains(rows[0], col) {
			t.Errorf("metrics.csv missing column %s", col)
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(dir, "trace.json"))), &trace); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if len(trace.TraceEvents) < 10 {
		t.Fatalf("trace.json has %d events, want a real trace", len(trace.TraceEvents))
	}
	if trace.TraceEvents[0].Ph != "M" {
		t.Errorf("trace.json should open with process metadata, got %+v", trace.TraceEvents[0])
	}

	var man struct {
		Config  map[string]any     `json:"config"`
		Results map[string]any     `json:"results"`
		Metrics map[string]float64 `json:"metrics"`
		Series  *obs.Series        `json:"series"`
	}
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(dir, "manifest.json"))), &man); err != nil {
		t.Fatalf("manifest.json does not parse: %v", err)
	}
	if man.Config == nil || man.Config["NetCores"] == nil {
		t.Errorf("manifest config missing or unresolved: %v", man.Config)
	}
	if man.Results == nil || man.Results["ThroughputMrps"] == nil {
		t.Errorf("manifest results missing: %v", man.Results)
	}
	if len(man.Metrics) == 0 {
		t.Error("manifest has no closing metric values")
	}
	if man.Series == nil || len(man.Series.Rows) < 2 {
		t.Error("manifest has no sampled series")
	}
}

func generateArtifacts(t *testing.T, dir string) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSampling(0)
	r := m.Run(50_000, 100_000)

	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("metrics.csv", func(f *os.File) error {
		return obs.WriteSeriesCSV(f, m.ObsSeries())
	})
	write("trace.json", func(f *os.File) error {
		return obs.WriteChromeTrace(f, m.ObsSeries(),
			obs.TraceMeta{Process: "obs smoke", FreqHz: machine.FreqHz})
	})
	write("manifest.json", func(f *os.File) error {
		return obs.WriteManifest(f, m.BuildManifest("obs smoke", r))
	})
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
