// Command experiments regenerates the paper's evaluation figures.
//
// Run everything at full fidelity (writes text tables to stdout and CSVs
// next to -out):
//
//	experiments -out results/
//
// Or a single figure, quickly:
//
//	experiments -fig fig5 -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sweeper/internal/experiments"
	"sweeper/internal/machine"
	"sweeper/internal/obs"
	"sweeper/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		figFlag    = flag.String("fig", "all", "comma-separated experiment ids ("+strings.Join(experiments.Names(), ", ")+"), 'claims' or 'all'")
		quick      = flag.Bool("quick", false, "use the reduced-fidelity quick scale")
		outDir     = flag.String("out", "", "directory for CSV output (optional)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = $SWEEPER_WORKERS, then GOMAXPROCS)")
		manifest   = flag.String("manifest", "", "write an invocation manifest (scale + generated tables) as JSON to this file")
		metricsOut = flag.String("metrics", "", "write a metric time-series CSV from an instrumented reference run to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON from an instrumented reference run to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	sc := experiments.FullScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	sc.Parallelism = *parallel

	registry := experiments.Registry()
	var ids []string
	switch *figFlag {
	case "all":
		ids = experiments.Names()
	case "claims":
		start := time.Now()
		claims := experiments.CheckClaims(sc)
		experiments.RenderClaims(os.Stdout, claims)
		fmt.Printf("(claims took %s)\n", time.Since(start).Round(time.Second))
		return
	default:
		for _, id := range strings.Split(*figFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				log.Fatalf("unknown experiment %q; known: %s",
					id, strings.Join(experiments.Names(), ", "))
			}
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	var allTables []experiments.Table
	for _, id := range ids {
		start := time.Now()
		fmt.Printf("=== %s ===\n", id)
		var tables []experiments.Table
		if id == "fig6" {
			// Fig6 has CDF curves beyond the summary table.
			r := experiments.Fig6(sc)
			tables = []experiments.Table{r.Summary}
			experiments.RenderCDFChart(os.Stdout, r.Curves)
			if *outDir != "" {
				if err := writeCDFs(filepath.Join(*outDir, "fig6_cdf.csv"), r); err != nil {
					log.Fatal(err)
				}
			}
		} else {
			tables = registry[id](sc)
		}
		for i := range tables {
			t := &tables[i]
			t.RenderDefault(os.Stdout)
			fmt.Println()
			if *outDir != "" {
				f, err := os.Create(filepath.Join(*outDir, t.ID+".csv"))
				if err != nil {
					log.Fatal(err)
				}
				if err := t.WriteCSV(f); err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Second))
		allTables = append(allTables, tables...)
	}

	if *metricsOut != "" || *traceOut != "" {
		if err := writeReferenceRun(sc, *metricsOut, *traceOut); err != nil {
			log.Fatal(err)
		}
	}
	if *manifest != "" {
		if err := writeInvocationManifest(*manifest, *figFlag, *quick, sc, allTables); err != nil {
			log.Fatal(err)
		}
	}
}

// writeReferenceRun simulates the default (Table I) configuration at the
// selected scale with metric sampling armed and exports the requested
// time-series artifacts, giving figure regeneration a companion record of
// what the simulated machine was doing.
func writeReferenceRun(sc experiments.Scale, metricsPath, tracePath string) error {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	m.EnableSampling(0)
	r := m.Run(sc.Warmup, sc.Measure)
	fmt.Printf("reference run: %s\n", r)
	if metricsPath != "" {
		if err := writeWith(metricsPath, func(f *os.File) error {
			return obs.WriteSeriesCSV(f, m.ObsSeries())
		}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		meta := obs.TraceMeta{Process: "experiments reference " + cfg.Workload, FreqHz: cfg.FreqHz}
		if err := writeWith(tracePath, func(f *os.File) error {
			return obs.WriteChromeTrace(f, m.ObsSeries(), meta)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeInvocationManifest records the whole invocation: which experiments
// ran, at what scale, and every generated table as structured JSON.
func writeInvocationManifest(path, figs string, quick bool, sc experiments.Scale, tables []experiments.Table) error {
	man := struct {
		GeneratedAt string              `json:"generated_at"`
		Figures     string              `json:"figures"`
		Quick       bool                `json:"quick"`
		Scale       experiments.Scale   `json:"scale"`
		Tables      []experiments.Table `json:"tables"`
	}{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Figures:     figs,
		Quick:       quick,
		Scale:       sc,
		Tables:      tables,
	}
	return writeWith(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

func writeWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCDFs(path string, r experiments.Fig6Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteCDFCSV(f, r)
}
