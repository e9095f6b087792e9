package scenario

import (
	"embed"
	"fmt"
	"strings"

	"sweeper/internal/machine"
)

// specs holds the builtin scenarios, one JSON file per spec, each named after
// its spec's name. The files are the only definition of the builtins: the
// figure harness, sweepersim and perfbench all load them through Load.
//
//go:embed specs/*.json
var specs embed.FS

// Builtins loads every builtin scenario spec, sorted by name.
func Builtins() []Spec {
	ents, err := specs.ReadDir("specs")
	if err != nil {
		panic(err)
	}
	out := make([]Spec, len(ents))
	for i, e := range ents {
		out[i] = MustSpec(strings.TrimSuffix(e.Name(), ".json"))
	}
	return out
}

// Builtin loads one builtin scenario from specs/<name>.json, reading no other
// file.
func Builtin(name string) (Spec, error) {
	path := "specs/" + name + ".json"
	f, err := specs.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: no builtin %q", name)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// MustSpec returns a builtin scenario, panicking on errors; it backs the
// experiment harness, where the builtin set is the source of truth.
func MustSpec(name string) Spec {
	s, err := Builtin(name)
	if err != nil {
		panic(err)
	}
	return s
}

// MustConfig expands a builtin scenario's base machine with overrides,
// panicking on errors; the overrides use the same knob names as spec files.
func MustConfig(name string, overrides map[string]float64) machine.Config {
	cfg, err := MustSpec(name).Config(overrides)
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", name, err))
	}
	return cfg
}
