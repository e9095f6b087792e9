// Command perfbench is the repository's benchmark. It runs one of three
// figure-sized workloads of the Sweeper simulator through the simulator's
// Go API, checks the simulated outputs against the committed goldens, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// of a separate traced run) as one JSON object on its last output line.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kvs-peak --seed 1 --seconds 30 --trace 0
//
// Every unit of work runs in a fresh process of this same binary (the
// simulator memoizes its KVS zeta, calibrations and machine pool per
// process); the first process orchestrates them. Every unit interleaves a
// host-speed meter with the simulation and the time metrics are rescaled to
// its reference speed (meter.go). See README.md here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sweeper/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// child, when set, makes this process run one unit and report it as
	// JSON: "unit" (untraced) or "traced".
	child string
	// Simulation effort, QuickScale (the committed results') by default.
	warmup, measure uint64
	iters           int
}

func run(args []string, stdout, stderr io.Writer) int {
	quick := experiments.QuickScale()
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: kvs-peak, l3fwd-deep or colloc")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "simulation seed (machine.Config.Seed); 1 reproduces the committed results")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics of a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run one unit (unit or traced) and report it")
	fs.Uint64Var(&o.warmup, "warmup", quick.Warmup, "warm-up cycles per run")
	fs.Uint64Var(&o.measure, "measure", quick.Measure, "measured cycles per run")
	fs.IntVar(&o.iters, "search-iters", quick.SearchIters, "bisection steps of the peak search")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err == nil && (o.trace < 0 || o.trace > 1 || o.seconds < 1 || o.measure == 0) {
		err = fmt.Errorf("need --trace 0 or 1, --seconds >= 1 and --measure > 0")
	}
	if err == nil && o.child != "" && o.child != "unit" && o.child != "traced" {
		err = fmt.Errorf("unknown --child mode %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sc := experiments.Scale{Warmup: o.warmup, Measure: o.measure, SearchIters: o.iters, Parallelism: 1}
	if o.child == "" {
		return orchestrate(o, w, sc, stdout, stderr)
	}
	// One P, in traced and untraced units alike. The simulator is
	// single-threaded, and the host-speed meter must interleave with it on
	// the same CPU. The garbage collector's work then runs, and is timed,
	// on that CPU too: with a second P it wakes the host's other virtual
	// CPU, which on the development host spread colloc's set-up times
	// from about 1.5 ms to as much as 11 ms.
	runtime.GOMAXPROCS(1)
	rep, err := runUnit(unitOpts{w: w, seed: o.seed, sc: sc, traced: o.child == "traced"})
	if err != nil {
		rep.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
