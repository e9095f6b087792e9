package scenario

import (
	"bytes"
	"testing"

	"sweeper/internal/machine"
)

// FuzzScenario drives spec JSON through Load, Expand, machine.New and a
// short run of the first expanded configuration. Every input must either be
// rejected with an error or run; none may panic. The builtin specs seed it,
// and testdata/fuzz/FuzzScenario holds inputs that once loaded and then
// panicked inside the machine, or that took seconds each before the target
// clamped the closed-loop depth.
func FuzzScenario(f *testing.F) {
	ents, err := specs.ReadDir("specs")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		doc, err := specs.ReadFile("specs/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		runs, err := s.Expand()
		if err != nil {
			t.Fatalf("Load accepted a spec that Expand rejects: %v", err)
		}
		// Keep each input cheap: a machine's cost grows with its cores,
		// and a closed loop fills every ring to its depth at cycle 0,
		// whatever the window, so its cost grows with depth × packet size.
		// Load and Expand have already validated the unclamped spec, but
		// machines with more than 8 networked or 2 X-Mem cores, and closed
		// loops deeper than 64 packets, are not run.
		cfg := runs[0].Config
		cfg.NetCores = min(cfg.NetCores, 8)
		cfg.XMemCores = min(cfg.XMemCores, 2)
		cfg.ClosedLoopDepth = min(cfg.ClosedLoopDepth, 64)
		m, err := machine.New(cfg)
		if err != nil {
			return
		}
		m.Run(1_000, 4_000)
	})
}
