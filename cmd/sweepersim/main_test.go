package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestProfilesSurviveFailedRun runs a command line that fails after the
// profiles have started (an unknown -mode) and checks that both profiles
// were still written as complete gzip streams.
func TestProfilesSurviveFailedRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "x.prof"), filepath.Join(dir, "y.prof")
	if err := run([]string{"-mode", "idio", "-cpuprofile", cpu, "-memprofile", mem}); err == nil {
		t.Fatal("-mode idio did not fail")
	}
	for _, p := range []string{cpu, mem} {
		checkGzip(t, p)
	}
}

// TestSweeperLineLabelsItsSpan runs a short -sweeper simulation and checks
// that the sweeper line keeps its "sweeper: N relinquishes" prefix and says
// that its counts cover the whole run while the saved bandwidth covers only
// the measured window.
func TestSweeperLineLabelsItsSpan(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run([]string{"-rate", "12", "-sweeper", "-warmup", "20000", "-measure", "40000"})
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^sweeper: \d+ relinquishes, \d+ lines swept, \d+ dirty dropped ` +
		`\(whole run, warm-up included\); \d+\.\d+ GB/s saved in the window$`)
	if !line.Match(text) {
		t.Fatalf("no labelled sweeper line in:\n%s", text)
	}
}

// TestScenarioRejectsIgnoredFlags checks that -scenario refuses a flag it
// would ignore instead of running without it: -dram-trace must fail the run
// before any file is created.
func TestScenarioRejectsIgnoredFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.csv")
	err := run([]string{"-scenario", filepath.Join("..", "..", "internal", "scenario", "specs", "kvs.json"),
		"-warmup", "20000", "-measure", "40000", "-dram-trace", trace})
	if err == nil || !strings.Contains(err.Error(), "-dram-trace") {
		t.Fatalf("-scenario with -dram-trace: error %v, want one naming -dram-trace", err)
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("-dram-trace file exists after the rejected run (stat error %v)", err)
	}
}

// checkGzip fails unless path holds a non-empty, complete gzip stream.
func checkGzip(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if n, err := io.Copy(io.Discard, z); err != nil || n == 0 {
		t.Fatalf("%s: %d bytes decompressed, error %v", path, n, err)
	}
}
