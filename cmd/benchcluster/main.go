// Command benchcluster records the cluster layer's node-count scaling
// curve: it runs the sharded Table I KVS rack at several node counts,
// measures simulated cycles per wall second for each, and writes the sweep
// as JSON.
//
//	benchcluster -out BENCH_cluster.json
//
// Nodes share one event engine, so rack wall time grows with total core
// count; the record shows what a rack costs relative to a single machine
// and how much of it the fabric and remote-memory path add. Each point is
// also run twice and cross-checked for bit-identical Results — a scaling
// record of a nondeterministic simulation would be worthless.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"time"

	"sweeper/internal/cluster"
	"sweeper/internal/machine"
)

// point is one measured node count.
type point struct {
	Nodes         int     `json:"nodes"`
	SimCores      int     `json:"simulated_cores"`
	WallSec       float64 `json:"wall_seconds"`
	SimcycPS      float64 `json:"simcyc_per_sec"`
	SlowdownX     float64 `json:"slowdown_vs_one_node"`
	Served        uint64  `json:"served"`
	RemoteReads   uint64  `json:"remote_reads"`
	FabricMsgs    uint64  `json:"fabric_messages"`
	Deterministic bool    `json:"rerun_identical"`
}

type report struct {
	GeneratedAt string  `json:"generated_at"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Warmup      uint64  `json:"warmup_cycles"`
	Measure     uint64  `json:"measure_cycles"`
	Reps        int     `json:"reps_per_point"`
	Points      []point `json:"points"`
	Note        string  `json:"note"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcluster: ")

	var (
		out     = flag.String("out", "BENCH_cluster.json", "output JSON path")
		warmup  = flag.Uint64("warmup", 500_000, "warmup cycles per run")
		measure = flag.Uint64("measure", 1_000_000, "measurement cycles per run")
		reps    = flag.Int("reps", 3, "timed repetitions per node count (best is kept)")
	)
	flag.Parse()

	node := machine.DefaultConfig()
	node.OfferedMrps = 8

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Warmup:      *warmup,
		Measure:     *measure,
		Reps:        *reps,
		Note: "All nodes share one event engine, so wall time scales with total " +
			"simulated cores; the per-node offered load is fixed, so served " +
			"requests scale with the rack. Reruns are bit-identical by " +
			"construction. See DESIGN.md §13.",
	}

	total := float64(*warmup + *measure)
	var baseRate float64
	for _, nodes := range []int{1, 2, 4, 8} {
		cfg := cluster.Config{Node: node, Nodes: nodes}
		run := func() (cluster.Results, float64) {
			cl, err := cluster.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			r := cl.Run(*warmup, *measure)
			return r, time.Since(start).Seconds()
		}
		var best float64
		var r cluster.Results
		for i := 0; i < *reps; i++ {
			res, sec := run()
			if best == 0 || sec < best {
				best = sec
			}
			r = res
		}
		recheck, _ := run()
		p := point{
			Nodes:         nodes,
			SimCores:      nodes * (node.NetCores + node.XMemCores),
			WallSec:       best,
			SimcycPS:      total / best,
			Served:        r.Served,
			RemoteReads:   r.RemoteReads,
			FabricMsgs:    r.Fabric.Messages,
			Deterministic: reflect.DeepEqual(recheck, r),
		}
		if !p.Deterministic {
			log.Fatalf("nodes=%d rerun diverged", nodes)
		}
		if nodes == 1 {
			baseRate = p.SimcycPS
		}
		p.SlowdownX = baseRate / p.SimcycPS
		rep.Points = append(rep.Points, p)
		fmt.Printf("nodes=%d (%d cores): %.2f Msimcyc/s, %.2fx one-node cost, %d served, %d remote reads\n",
			nodes, p.SimCores, p.SimcycPS/1e6, p.SlowdownX, p.Served, p.RemoteReads)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
