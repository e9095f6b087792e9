package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"sweeper/internal/experiments"
)

// deadline bounds a whole run: children still running then are killed, so
// the benchmark always exits within its 180-second contract.
const deadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics, measured with tracing off.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"max_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// runner spawns this binary's unit processes and books their outcomes.
type runner struct {
	o      options
	w      workloadDef
	sc     experiments.Scale
	exe    string
	ctx    context.Context
	stdout io.Writer
	stderr io.Writer
	golden goldenChecks

	attempted, failed int
	// want holds the first unit's digest per op: every later unit of
	// the run must reproduce it.
	want    []string
	reports []unitReport
}

func orchestrate(o options, w workloadDef, sc experiments.Scale, stdout, stderr io.Writer) int {
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "perfbench", "reference.json"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	golden, err := loadGoldenChecks(root, w, o.seed, sc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: loading the committed references:", err)
		return 1
	}
	prov := newProvenance(o.seed, sc)
	prov.GitRev, prov.SourceSHA = gitRev(root), sourceSHA(root)
	line, _ := json.Marshal(map[string]any{"record": "provenance", "workload": w.name, "trace": o.trace, "provenance": prov})
	fmt.Fprintln(stdout, string(line))

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	r := &runner{o: o, w: w, sc: sc, exe: exe, ctx: ctx, stdout: stdout, stderr: stderr, golden: golden}
	var res result
	if o.trace == 1 {
		res = r.traced()
	} else {
		res = r.untraced()
	}
	r.printDigests()
	if err := r.writeRecords(root, prov); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing records:", err)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// spawn runs one unit process in the given child mode ("unit" or
// "traced") and returns its report and peak RSS in MB.
func (r *runner) spawn(mode string) (unitReport, float64, error) {
	var rep unitReport
	cmd := exec.CommandContext(r.ctx, r.exe, "--child", mode,
		"--workload", r.w.name, "--seed", strconv.FormatInt(r.o.seed, 10),
		"--warmup", strconv.FormatUint(r.sc.Warmup, 10), "--measure", strconv.FormatUint(r.sc.Measure, 10),
		"--search-iters", strconv.Itoa(r.sc.SearchIters))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, r.stderr
	if err := cmd.Run(); err != nil {
		return rep, 0, fmt.Errorf("%s process: %w", mode, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, 0, fmt.Errorf("%s process report: %w", mode, err)
	}
	if rep.Err != "" {
		return rep, rss, fmt.Errorf("%s process: %s", mode, rep.Err)
	}
	return rep, rss, nil
}

// unit runs one full unit and books its operations; ok reports whether it
// produced a usable measurement.
func (r *runner) unit(mode string) (unitReport, float64, bool) {
	rep, rss, err := r.spawn(mode)
	if err != nil {
		fmt.Fprintln(r.stdout, "unit failed:", err)
		n := len(rep.Ops)
		if n == 0 {
			n = 1
		}
		r.attempted += n
		r.failed += n
		return rep, rss, false
	}
	r.reports = append(r.reports, rep)
	for i, op := range rep.Ops {
		r.attempted++
		if err := r.checkOp(i, op); err != nil {
			r.failed++
			fmt.Fprintf(r.stdout, "FAIL %s: %s: %v\n", mode, op.Name, err)
		}
	}
	fmt.Fprintf(r.stdout, "%s: setup %.4f s (scaled %.4f), wall %.4f s (scaled %.4f), meter %.0f/%.0f ns per pass before/during, peak RSS %.1f MB, allocated %.1f MB\n",
		mode, rep.SetupS, rep.scaledSetup(), rep.WallS, rep.scaledWall(), rep.MeterWarmNs, rep.MeterNs, rss, float64(rep.AllocBytes)/1e6)
	return rep, rss, true
}

// scaledSetup is the set-up time at reference host speed, by the meter's
// reading just before the clock started.
func (u unitReport) scaledSetup() float64 {
	return scaled(u.SetupS, u.SetupMeterS, u.MeterWarmNs)
}

// scaledWall is the unit's wall time at reference host speed, by the
// meter's reading during the unit (its warm-up reading when too short for
// a slice).
func (u unitReport) scaledWall() float64 {
	if u.MeterNs == 0 {
		return scaled(u.WallS, u.MeterS, u.MeterWarmNs)
	}
	return scaled(u.WallS, u.MeterS, u.MeterNs)
}

// scaledCommonWall is a traced unit's wall time without its traced-only
// work, at reference host speed. The meter runs at a fixed cadence, so its
// own time is taken in proportion.
func (u unitReport) scaledCommonWall() float64 {
	v := u
	v.WallS, v.MeterS = u.CommonWallS, u.MeterS*ratio(u.CommonWallS, u.WallS)
	return v.scaledWall()
}

// checkOp applies the outputs check to op i of a unit.
func (r *runner) checkOp(i int, op opResult) error {
	if op.Err != "" {
		return fmt.Errorf("%s", op.Err)
	}
	if i >= len(r.want) {
		r.want = append(r.want, op.Digest)
	} else if r.want[i] != op.Digest {
		return fmt.Errorf("outputs digest %s differs from the run's first unit (%s)", op.Digest, r.want[i])
	}
	return r.golden.check(i, op)
}

// untraced measures the end-to-end metrics: full units back to back while
// the budget lasts (at least one).
func (r *runner) untraced() result {
	start := time.Now()
	budget := time.Duration(r.o.seconds) * time.Second
	var setups, walls, rsses, allocs []float64
	var longest time.Duration
	for r.failed == 0 {
		t := time.Now()
		rep, rss, ok := r.unit("unit")
		if !ok {
			break
		}
		setups = append(setups, rep.scaledSetup())
		walls = append(walls, rep.scaledWall())
		rsses = append(rsses, rss)
		allocs = append(allocs, float64(rep.AllocBytes)/1e6)
		longest = max(longest, time.Since(t))
		if time.Since(start)+longest > budget {
			break
		}
	}
	values := []float64{median(setups), median(walls), median(rsses), median(allocs)}
	m := map[string]metric{}
	for i, e := range e2eUnits {
		m[e.name] = metric{Value: values[i], Unit: e.unit}
	}
	fmt.Fprintf(r.stdout, "medians over %d units (set-up quartiles %.4f %.4f %.4f s)\n",
		len(walls), quantile(setups, 0.25), median(setups), quantile(setups, 0.75))
	return result{Metrics: m}
}

// traced measures the per-layer metrics: pairs of an untraced and a traced
// unit while the budget lasts (at least one pair). checkOp holds every unit
// to the first, untraced one's digests, so tracing must leave the simulated
// outputs unchanged.
func (r *runner) traced() result {
	start := time.Now()
	budget := time.Duration(r.o.seconds) * time.Second
	layers := map[string][]float64{}
	var longest time.Duration
	for {
		t := time.Now()
		plain, _, ok1 := r.unit("unit")
		tr, _, ok2 := r.unit("traced")
		if ok1 && ok2 {
			for name, v := range tr.Layers {
				layers[name] = append(layers[name], v)
			}
			// Both at reference host speed, each by its own meter.
			overhead := tr.scaledCommonWall()/plain.scaledWall() - 1
			layers["trace.overhead_frac"] = append(layers["trace.overhead_frac"], overhead)
		}
		longest = max(longest, time.Since(t))
		if !ok1 || !ok2 || time.Since(start)+longest > budget {
			break
		}
	}
	m := map[string]metric{}
	for _, l := range layerUnits {
		m[l.name] = metric{Value: median(layers[l.name]), Unit: l.unit}
	}
	if len(layers) != len(layerUnits) && r.failed == 0 {
		r.failed++
		fmt.Fprintf(r.stdout, "FAIL traced run reported %d per-layer metrics, want %d\n", len(layers), len(layerUnits))
	}
	return result{Metrics: m}
}

// printDigests prints the run's per-op digests, so runs under any seed can
// be compared between commits.
func (r *runner) printDigests() {
	if len(r.want) == 0 {
		return
	}
	all, _ := digest(r.want)
	fmt.Fprintf(r.stdout, "digest %s seed=%d: %s\n", r.w.name, r.o.seed, all)
	for i, d := range r.want {
		fmt.Fprintf(r.stdout, "  op %d: %s\n", i, d)
	}
}

// writeRecords keeps the run's unit reports, spans included, under the
// build directory.
func (r *runner) writeRecords(root string, prov provenance) error {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"provenance": prov, "units": r.reports}, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", r.w.name, r.o.trace, r.o.seed)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
