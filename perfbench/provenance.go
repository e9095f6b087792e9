package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"sweeper/internal/experiments"
)

// provenance stamps every record with what its numbers depend on: the host,
// the toolchain, the source revision, the seed and the simulation effort.
// HostID digests the host fields, so records from different hosts never
// compare silently.
type provenance struct {
	HostID      string `json:"host_id"`
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRev      string `json:"git_rev"`
	SourceSHA   string `json:"source_sha256"`
	Seed        int64  `json:"seed"`
	Warmup      uint64 `json:"warmup_cycles"`
	Measure     uint64 `json:"measure_cycles"`
	SearchIters int    `json:"search_iters"`
}

// newProvenance fills the fields a benchmark process knows by itself; the
// orchestrating process adds the source revision.
func newProvenance(seed int64, sc experiments.Scale) provenance {
	p := provenance{
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Warmup:      sc.Warmup,
		Measure:     sc.Measure,
		SearchIters: sc.SearchIters,
	}
	sum := sha256.Sum256([]byte(strings.Join([]string{p.CPUModel, strconv.Itoa(p.NProc), strconv.Itoa(p.GOMAXPROCS), p.GoVersion}, "\x00")))
	p.HostID = hex.EncodeToString(sum[:8])
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD of the checkout at root by reading .git directly, or
// reports "none" outside a git checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// sourceSHA digests every Go source and module file under root (skipping
// .git and the build directory): the revision of what was built, which also
// identifies checkouts that are not git repositories.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
