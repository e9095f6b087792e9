// Command sweepersim runs a single simulated-server configuration and
// prints its measured results: throughput, memory bandwidth, the DRAM
// access breakdown, latency percentiles and Sweeper activity.
//
// Examples:
//
//	sweepersim -workload kvs -mode ddio -ways 2 -ring 1024 -packet 1024 \
//	           -rate 30 -sweeper
//	sweepersim -scenario internal/scenario/specs/fig1.json
//	sweepersim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sweeper/internal/core"
	"sweeper/internal/machine"
	"sweeper/internal/nic"
	"sweeper/internal/obs"
	"sweeper/internal/prof"
	"sweeper/internal/scenario"
	"sweeper/internal/stats"
	"sweeper/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepersim: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run parses the command line and performs the run. Every failure returns
// through it, so the deferred profile stop runs and -cpuprofile and
// -memprofile leave complete files even when the run fails.
func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		scenarioPath = fs.String("scenario", "", "run a declarative scenario spec file (takes only the window, profile and exporter flags)")
		listAll      = fs.Bool("list", false, "list builtin scenarios and registered workloads, then exit")
		workloadName = fs.String("workload", "kvs", "workload registry name (see -list)")
		modeName     = fs.String("mode", "ddio", "injection: dma, ddio, ideal")
		ways         = fs.Int("ways", 2, "DDIO LLC ways")
		ring         = fs.Int("ring", 1024, "RX buffers per core")
		txSlots      = fs.Int("txslots", 0, "TX buffers per core (0 = workload default)")
		packet       = fs.Uint64("packet", 1024, "packet/item size in bytes")
		rate         = fs.Float64("rate", 20, "offered load in Mrps (open loop)")
		queued       = fs.Int("queued", 0, "closed loop: keep D packets queued per core (overrides -rate)")
		cores        = fs.Int("cores", 24, "networked cores")
		xmem         = fs.Int("xmem", 0, "collocated X-Mem cores")
		channels     = fs.Int("channels", 4, "DDR4 channels")
		sweeperOn    = fs.Bool("sweeper", false, "enable Sweeper RX relinquish")
		sweepTX      = fs.Bool("sweep-tx", false, "enable NIC-driven TX sweeping (§V-D)")
		warmup       = fs.Uint64("warmup", 400_000, "warmup cycles")
		measure      = fs.Uint64("measure", 800_000, "measurement cycles")
		seed         = fs.Int64("seed", 1, "random seed")
		mlp          = fs.Int("mlp", 0, "memory-level parallelism width (0 = default)")
		spikeProb    = fs.Float64("spike-prob", 0, "per-request service spike probability (§VI-F)")
		sanitize     = fs.Bool("sanitize", false, "flag use-after-relinquish reads")
		dramTrace    = fs.String("dram-trace", "", "write a DRAM transaction trace CSV to this file")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var ob obsFlags
	fs.StringVar(&ob.trace, "trace", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	fs.StringVar(&ob.metrics, "metrics", "", "write the sampled metric time-series CSV to this file")
	fs.StringVar(&ob.manifest, "manifest", "", "write a JSON run manifest (config, results, metrics) to this file")
	fs.Uint64Var(&ob.sample, "sample", 0, "metric sampling period in cycles (0 = ~256 samples per run)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listAll {
		return list(os.Stdout)
	}
	if *scenarioPath != "" {
		if err := scenarioOnlyFlags(fs); err != nil {
			return err
		}
	}
	if *measure == 0 {
		return errors.New("-measure must be positive")
	}

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *scenarioPath != "" {
		return runScenario(*scenarioPath, *warmup, *measure, ob)
	}

	cfg := machine.DefaultConfig()
	cfg.NetCores = *cores
	cfg.XMemCores = *xmem
	cfg.DDIOWays = *ways
	cfg.RingSlots = *ring
	cfg.PacketBytes = *packet
	cfg.OfferedMrps = *rate
	cfg.ClosedLoopDepth = *queued
	cfg.Mem.Channels = *channels
	cfg.Seed = *seed
	if *txSlots > 0 {
		cfg.TXSlots = *txSlots
	}
	cfg.Sweeper = core.Config{RXSweep: *sweeperOn, TXSweep: *sweepTX}
	if *mlp > 0 {
		cfg.MLPWidth = *mlp
	}
	cfg.SpikeProb = *spikeProb
	cfg.Sweeper.DebugUseAfterRelinquish = *sanitize

	// The registry validates the workload name inside machine.New; the
	// mode string parses through the scenario grammar.
	cfg.Workload = *workloadName
	mode, err := scenario.Variant{Mode: *modeName}.NICMode()
	if err != nil {
		return err
	}
	cfg.NICMode = mode

	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	if *dramTrace != "" {
		f, err := os.Create(*dramTrace)
		if err != nil {
			return err
		}
		sink, flush := machine.TraceCSV(f)
		m.SetTraceSink(sink)
		defer func() {
			err = errors.Join(err, flush(), f.Close())
		}()
	}
	ob.arm(m)
	r := m.Run(*warmup, *measure)
	if err := ob.export(m, cfg, fmt.Sprintf("%s %s", cfg.Workload, cfg.NICMode), r, 0, 1); err != nil {
		return err
	}
	printResults(cfg, r)
	if *sanitize {
		if v := m.Sweeper().Violations(); len(v) > 0 {
			fmt.Printf("sanitizer: %d use-after-relinquish reads detected\n", len(v))
		} else {
			fmt.Println("sanitizer: no use-after-relinquish reads")
		}
	}
	_ = os.Stdout.Sync()
	return nil
}

// scenarioOnlyFlags rejects every flag set on the command line that a
// -scenario run would ignore: the spec file sets the machine, so only the
// window, profile and exporter flags apply.
func scenarioOnlyFlags(fs *flag.FlagSet) error {
	honoured := map[string]bool{
		"scenario": true, "warmup": true, "measure": true,
		"cpuprofile": true, "memprofile": true,
		"trace": true, "metrics": true, "manifest": true, "sample": true,
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !honoured[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("-scenario runs the spec file's machines and would ignore %s", strings.Join(ignored, ", "))
	}
	return nil
}

// list prints the builtin scenarios and registered workloads.
func list(w *os.File) error {
	fmt.Fprintln(w, "builtin scenarios (internal/scenario/specs/<name>.json; run one, or an edited copy, with -scenario <file>):")
	for _, s := range scenario.Builtins() {
		runs, err := s.Expand()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %s (%d runs)\n", s.Name, s.Description, len(runs))
	}
	fmt.Fprintf(w, "registered workloads:          %s\n", strings.Join(workload.Names(), ", "))
	fmt.Fprintf(w, "registered arrival processes:  %s\n", strings.Join(nic.ArrivalNames(), ", "))
	fmt.Fprintf(w, "invalidation instructions:     %s\n", strings.Join(core.InsnNames(), ", "))
	return nil
}

// runScenario expands a spec file and simulates every run in order.
func runScenario(path string, warmup, measure uint64, ob obsFlags) error {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	runs, err := spec.Expand()
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %s (%d runs)\n", spec.Name, spec.Description, len(runs))
	for i, r := range runs {
		fmt.Printf("\n--- run %d/%d", i+1, len(runs))
		if r.Param != "" {
			fmt.Printf("  param %s", r.Param)
		}
		fmt.Printf("  variant %s ---\n", r.Variant.DisplayName())
		label := spec.Name + " " + r.Variant.DisplayName()
		if r.Param != "" {
			label += " " + r.Param
		}
		m, err := machine.New(r.Config)
		if err != nil {
			return err
		}
		ob.arm(m)
		res := m.Run(warmup, measure)
		if err := ob.export(m, r.Config, label, res, i, len(runs)); err != nil {
			return err
		}
		printResults(r.Config, res)
	}
	return nil
}

// obsFlags bundles the observability exporter options shared by the single-
// config and scenario modes.
type obsFlags struct {
	metrics  string
	trace    string
	manifest string
	sample   uint64
}

func (o obsFlags) active() bool {
	return o.metrics != "" || o.trace != "" || o.manifest != ""
}

// arm enables metric sampling on the machine when any exporter is requested,
// so the run records the time-series the exporters need.
func (o obsFlags) arm(m *machine.Machine) {
	if o.active() {
		m.EnableSampling(o.sample)
	}
}

// export writes the requested artifacts for a completed run. In multi-run
// scenarios each output path gains a ".runNN" suffix before its extension so
// runs do not clobber each other; single runs write the exact path given.
func (o obsFlags) export(m *machine.Machine, cfg machine.Config, label string, r machine.Results, runIdx, nRuns int) error {
	if o.metrics != "" {
		if err := writeArtifact(obsOutPath(o.metrics, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteSeriesCSV(f, m.ObsSeries())
		}); err != nil {
			return err
		}
	}
	if o.trace != "" {
		meta := obs.TraceMeta{Process: "sweepersim " + label, FreqHz: machine.FreqHz}
		if err := writeArtifact(obsOutPath(o.trace, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteChromeTrace(f, m.ObsSeries(), meta)
		}); err != nil {
			return err
		}
	}
	if o.manifest != "" {
		man := m.BuildManifest(label, r)
		man.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		return writeArtifact(obsOutPath(o.manifest, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteManifest(f, man)
		})
	}
	return nil
}

// obsOutPath inserts a ".runNN" tag before the extension for multi-run
// scenarios: out.json -> out.run03.json.
func obsOutPath(path string, runIdx, nRuns int) string {
	if nRuns <= 1 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.run%02d%s", strings.TrimSuffix(path, ext), runIdx+1, ext)
}

// writeArtifact creates path and runs the writer against it, returning any
// error so the run fails and a truncated artifact never passes silently.
func writeArtifact(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

func printResults(cfg machine.Config, r machine.Results) {
	fmt.Printf("config: %s %s", cfg.Workload, cfg.NICMode)
	if cfg.NICMode == nic.ModeDDIO {
		fmt.Printf(" %d-way", cfg.DDIOWays)
	}
	if cfg.Sweeper.RXSweep {
		fmt.Printf(" +Sweeper")
	}
	fmt.Printf(", %d cores, %d RX buffers/core, %dB packets, %d channels\n",
		cfg.NetCores, cfg.RingSlots, cfg.PacketBytes, cfg.Mem.Channels)

	fmt.Printf("throughput:      %8.2f Mrps (%d requests served)\n", r.ThroughputMrps, r.Served)
	fmt.Printf("memory bw:       %8.2f GB/s (%.0f%% of peak)\n", r.MemBWGBps, 100*r.MemBWUtilization)
	fmt.Printf("dram latency:    mean %.0f  p50 %d  p99 %d cycles\n",
		r.DRAMLatMean, r.DRAMLatP50, r.DRAMLatP99)
	fmt.Printf("request latency: mean %.0f  p99 %d cycles (service %.0f)\n",
		r.ReqLatMean, r.ReqLatP99, r.AvgServiceCycles)
	if r.Offered > 0 {
		fmt.Printf("drops:           %d / %d offered (%.4f%%)\n",
			r.Dropped, r.Offered, 100*r.DropRate)
	}
	if r.XMemAccesses > 0 {
		fmt.Printf("xmem:            IPC proxy %.3f\n", r.XMemIPC)
	}
	fmt.Printf("llc miss ratio:  %.3f\n", r.LLCMissRatio)

	fmt.Println("memory accesses per request:")
	for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
		if r.AccessesPerRequest[k] == 0 {
			continue
		}
		fmt.Printf("  %-14s %7.3f\n", k, r.AccessesPerRequest[k])
	}
	if r.Sweeper.SweptLines > 0 {
		fmt.Printf("sweeper: %d relinquishes, %d lines swept, %d dirty dropped (whole run, warm-up included); %.2f GB/s saved in the window\n",
			r.Sweeper.Relinquishes, r.Sweeper.SweptLines,
			r.Sweeper.DroppedDirtyLines, r.SweeperSavedGBps)
	}
}
