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
	"sweeper/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run parses the command line and regenerates the selected figures. Every
// failure returns through it, so the deferred profile stop runs and
// -cpuprofile and -memprofile leave complete files even when a run fails.
func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		figFlag    = fs.String("fig", "all", "comma-separated experiment ids ("+strings.Join(experiments.Names(), ", ")+"), 'claims' or 'all'")
		quick      = fs.Bool("quick", false, "use the reduced-fidelity quick scale")
		outDir     = fs.String("out", "", "directory for CSV output (optional)")
		parallel   = fs.Int("parallel", 0, "max concurrent simulations (0 = $SWEEPER_WORKERS, then GOMAXPROCS)")
		manifest   = fs.String("manifest", "", "write an invocation manifest (scale + generated tables) as JSON to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
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
		return nil
	default:
		for _, id := range strings.Split(*figFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				return fmt.Errorf("unknown experiment %q; known: %s",
					id, strings.Join(experiments.Names(), ", "))
			}
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
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
				if err := writeWith(filepath.Join(*outDir, "fig6_cdf.csv"), func(f *os.File) error {
					return experiments.WriteCDFCSV(f, r)
				}); err != nil {
					return err
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
				if err := writeWith(filepath.Join(*outDir, t.ID+".csv"), func(f *os.File) error {
					return t.WriteCSV(f)
				}); err != nil {
					return err
				}
			}
		}
		fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Second))
		allTables = append(allTables, tables...)
	}

	if *manifest != "" {
		return writeInvocationManifest(*manifest, *figFlag, *quick, sc, allTables)
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
