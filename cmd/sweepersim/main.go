// Command sweepersim runs a single simulated-server configuration and
// prints its measured results: throughput, memory bandwidth, the DRAM
// access breakdown, latency percentiles and Sweeper activity.
//
// Examples:
//
//	sweepersim -workload kvs -mode ddio -ways 2 -ring 1024 -packet 1024 \
//	           -rate 30 -sweeper
//	sweepersim -scenario examples/scenarios/fig1.json
//	sweepersim -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sweeper/internal/core"
	"sweeper/internal/machine"
	"sweeper/internal/mem"
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

	var (
		scenarioPath = flag.String("scenario", "", "run a declarative scenario spec file (overrides config flags)")
		listAll      = flag.Bool("list", false, "list builtin scenarios and registered workloads, then exit")
		workloadName = flag.String("workload", "kvs", "workload registry name (see -list)")
		modeName     = flag.String("mode", "ddio", "injection: dma, ddio, ideal")
		ways         = flag.Int("ways", 2, "DDIO LLC ways")
		ring         = flag.Int("ring", 1024, "RX buffers per core")
		txSlots      = flag.Int("txslots", 0, "TX buffers per core (0 = workload default)")
		packet       = flag.Uint64("packet", 1024, "packet/item size in bytes")
		rate         = flag.Float64("rate", 20, "offered load in Mrps (open loop)")
		queued       = flag.Int("queued", 0, "closed loop: keep D packets queued per core (overrides -rate)")
		arrival      = flag.String("arrival", "", "open-loop arrival process: "+strings.Join(nic.ArrivalNames(), ", ")+" (empty = poisson)")
		burstRatio   = flag.Float64("arrival-burst-ratio", 0, "MMPP on/off rate ratio (0 = default 8)")
		burstDwell   = flag.Uint64("arrival-burst-dwell", 0, "MMPP mean state dwell in cycles (0 = default 131072)")
		cores        = flag.Int("cores", 24, "networked cores")
		xmem         = flag.Int("xmem", 0, "collocated X-Mem cores")
		channels     = flag.Int("channels", 4, "DDR4 channels")
		sweeperOn    = flag.Bool("sweeper", false, "enable Sweeper RX relinquish")
		sweepTX      = flag.Bool("sweep-tx", false, "enable NIC-driven TX sweeping (§V-D)")
		insn         = flag.String("invalidate-insn", "", "relinquish instruction: "+strings.Join(core.InsnNames(), ", ")+" (empty = clsweep)")
		simfBatch    = flag.Int("simf-batch", 0, "simf: lines invalidated per batch (0 = default 64)")
		simfSetup    = flag.Int("simf-setup", 0, "simf: fixed setup cycles per bulk flush")
		tierPolicy   = flag.String("mem-tier", "", "hybrid memory placement policy: "+strings.Join(mem.TierPolicies(), ", ")+" (empty = DRAM only)")
		tierSplit    = flag.Uint64("mem-tier-split", 0, "hybrid memory: app-heap bytes kept on DRAM (0 = whole heap on tier 1)")
		tierReadLat  = flag.Uint64("mem-tier-read-lat", 0, "hybrid memory: tier-1 read latency in cycles (0 = default 300)")
		tierWriteLat = flag.Uint64("mem-tier-write-lat", 0, "hybrid memory: tier-1 write latency in cycles (0 = default 1000)")
		tierBW       = flag.Float64("mem-tier-bw", 0, "hybrid memory: tier-1 bandwidth ceiling in GB/s (0 = default 16)")
		warmup       = flag.Uint64("warmup", 400_000, "warmup cycles")
		measure      = flag.Uint64("measure", 800_000, "measurement cycles")
		seed         = flag.Int64("seed", 1, "random seed")
		mlp          = flag.Int("mlp", 0, "memory-level parallelism width (0 = default)")
		spikeProb    = flag.Float64("spike-prob", 0, "per-request service spike probability (§VI-F)")
		sanitize     = flag.Bool("sanitize", false, "flag use-after-relinquish reads")
		dramTrace    = flag.String("dram-trace", "", "write a DRAM transaction trace CSV to this file")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var ob obsFlags
	flag.StringVar(&ob.trace, "trace", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	flag.StringVar(&ob.metrics, "metrics", "", "write the sampled metric time-series CSV to this file")
	flag.StringVar(&ob.manifest, "manifest", "", "write a JSON run manifest (config, results, metrics) to this file")
	flag.Uint64Var(&ob.sample, "sample", 0, "metric sampling period in cycles (0 = ~256 samples per run)")
	flag.Parse()

	if *listAll {
		list(os.Stdout)
		return
	}
	if *measure == 0 {
		log.Fatal("-measure must be positive")
	}

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	if *scenarioPath != "" {
		runScenario(*scenarioPath, *warmup, *measure, ob)
		return
	}

	cfg := machine.DefaultConfig()
	cfg.NetCores = *cores
	cfg.XMemCores = *xmem
	cfg.DDIOWays = *ways
	cfg.RingSlots = *ring
	cfg.PacketBytes = *packet
	cfg.ItemBytes = *packet
	cfg.OfferedMrps = *rate
	cfg.ClosedLoopDepth = *queued
	cfg.Arrival = nic.ArrivalConfig{
		Process:          *arrival,
		BurstRatio:       *burstRatio,
		BurstDwellCycles: *burstDwell,
	}
	cfg.Mem.Channels = *channels
	cfg.Seed = *seed
	if *txSlots > 0 {
		cfg.TXSlots = *txSlots
	}
	cfg.Sweeper = core.Config{RXSweep: *sweeperOn, TXSweep: *sweepTX, IssueCyclesPerLine: 1}
	cfg.Sweeper.Insn = *insn
	cfg.Sweeper.SIMFBatchLines = *simfBatch
	cfg.Sweeper.SIMFSetupCycles = *simfSetup
	if *tierPolicy != "" {
		tc := mem.DefaultTierConfig(*tierPolicy)
		tc.DRAMBytes = *tierSplit
		if *tierReadLat > 0 {
			tc.ReadLatency = *tierReadLat
		}
		if *tierWriteLat > 0 {
			tc.WriteLatency = *tierWriteLat
		}
		if *tierBW > 0 {
			tc.BandwidthGBps = *tierBW
		}
		cfg.MemTier = tc
	}
	if *mlp > 0 {
		cfg.MLPWidth = *mlp
	}
	if *spikeProb > 0 {
		cfg.SpikeProb = *spikeProb
		cfg.SpikeMinCycles = 3_200   // 1us
		cfg.SpikeMaxCycles = 320_000 // 100us
	}
	cfg.Sweeper.DebugUseAfterRelinquish = *sanitize

	// The registry validates the workload name inside machine.New; the
	// mode string parses through the scenario grammar.
	cfg.Workload = *workloadName
	mode, err := scenario.Variant{Mode: *modeName}.NICMode()
	if err != nil {
		log.Fatal(err)
	}
	cfg.NICMode = mode

	m, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *dramTrace != "" {
		f, err := os.Create(*dramTrace)
		if err != nil {
			log.Fatal(err)
		}
		sink, flush := machine.TraceCSV(f)
		m.SetTraceSink(sink)
		defer func() {
			if err := flush(); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	ob.arm(m)
	r := m.Run(*warmup, *measure)
	ob.export(m, cfg, fmt.Sprintf("%s %s", cfg.Workload, cfg.NICMode), r, 0, 1)
	printResults(cfg, r)
	if *sanitize {
		if v := m.Sweeper().Violations(); len(v) > 0 {
			fmt.Printf("sanitizer: %d use-after-relinquish reads detected\n", len(v))
		} else {
			fmt.Println("sanitizer: no use-after-relinquish reads")
		}
	}
	_ = os.Stdout.Sync()
}

// list prints the builtin scenarios and registered workloads.
func list(w *os.File) {
	fmt.Fprintln(w, "builtin scenarios (run a copy with -scenario <file>; shipped under examples/scenarios/):")
	for _, s := range scenario.Builtins() {
		runs, err := s.Expand()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-12s %s (%d runs)\n", s.Name, s.Description, len(runs))
	}
	fmt.Fprintf(w, "registered workloads:          %s\n", strings.Join(workload.Names(), ", "))
	fmt.Fprintf(w, "registered arrival processes:  %s\n", strings.Join(nic.ArrivalNames(), ", "))
	fmt.Fprintf(w, "invalidation instructions:     %s\n", strings.Join(core.InsnNames(), ", "))
	fmt.Fprintf(w, "memory tier policies:          %s\n", strings.Join(mem.TierPolicies(), ", "))
}

// runScenario expands a spec file and simulates every run in order.
func runScenario(path string, warmup, measure uint64, ob obsFlags) {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := spec.Expand()
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		ob.arm(m)
		res := m.Run(warmup, measure)
		ob.export(m, r.Config, label, res, i, len(runs))
		printResults(r.Config, res)
	}
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
func (o obsFlags) export(m *machine.Machine, cfg machine.Config, label string, r machine.Results, runIdx, nRuns int) {
	if o.metrics != "" {
		writeArtifact(obsOutPath(o.metrics, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteSeriesCSV(f, m.ObsSeries())
		})
	}
	if o.trace != "" {
		meta := obs.TraceMeta{Process: "sweepersim " + label, FreqHz: cfg.FreqHz}
		writeArtifact(obsOutPath(o.trace, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteChromeTrace(f, m.ObsSeries(), meta)
		})
	}
	if o.manifest != "" {
		man := m.BuildManifest(label, r)
		man.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		writeArtifact(obsOutPath(o.manifest, runIdx, nRuns), func(f *os.File) error {
			return obs.WriteManifest(f, man)
		})
	}
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

// writeArtifact creates path and runs the writer against it, failing the
// process on any error so a truncated artifact never passes silently.
func writeArtifact(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
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
		fmt.Printf("sweeper: %d relinquishes, %d lines swept, %d dirty dropped, %d written back (%.2f GB/s saved)\n",
			r.Sweeper.Relinquishes, r.Sweeper.SweptLines,
			r.Sweeper.DroppedDirtyLines, r.Sweeper.WrittenBackLines, r.SweeperSavedGBps)
	}
	if r.Tier1Accesses > 0 {
		fmt.Printf("tier1:           %d accesses, %.2f GB/s\n", r.Tier1Accesses, r.Tier1BWGBps)
	}
}
