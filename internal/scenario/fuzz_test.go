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
// panicked inside the machine.
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
		// and no input needs many of them to reach every code path.
		cfg := runs[0].Config
		cfg.NetCores = min(cfg.NetCores, 8)
		cfg.XMemCores = min(cfg.XMemCores, 2)
		m, err := machine.New(cfg)
		if err != nil {
			return
		}
		m.Run(1_000, 4_000)
	})
}
