package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
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
