package main

import (
	"testing"

	"sweeper/internal/experiments"
)

// tinyScale keeps each workload well under a second.
var tinyScale = experiments.Scale{Warmup: 200_000, Measure: 200_000, SearchIters: 2, Parallelism: 1}

// TestTracingIsTransparent runs every workload untraced and traced at tiny
// windows: the traced unit (wrapped registrations, decomposed runs, recorded
// DRAM stream, and for the search the peak re-run checked against
// PeakResult.At) must reproduce the untraced outputs exactly, and both must
// match the reference digests kept in reference.json.
func TestTracingIsTransparent(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			want := ref[referenceKey(w.name, goldenSeed, tinyScale)]
			if want == nil {
				t.Fatalf("reference.json has no entry %q", referenceKey(w.name, goldenSeed, tinyScale))
			}
			for _, traced := range []bool{false, true} {
				rep, err := runUnit(unitOpts{w: w, seed: goldenSeed, sc: tinyScale, traced: traced})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(rep.Ops) != len(want) {
					t.Fatalf("traced=%v: %d ops, reference has %d", traced, len(rep.Ops), len(want))
				}
				for i, op := range rep.Ops {
					if op.Err != "" || op.Digest != want[i] {
						t.Errorf("traced=%v %s: err %q, digest %s, reference %s", traced, op.Name, op.Err, op.Digest, want[i])
					}
				}
				if traced && len(rep.Layers) != len(layerUnits)-1 {
					t.Errorf("traced unit reported %d per-layer metrics, want all but trace.overhead_frac (%d)", len(rep.Layers), len(layerUnits)-1)
				}
			}
		})
	}
}
