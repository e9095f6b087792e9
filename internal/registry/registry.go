// Package registry provides the name-keyed table behind the simulator's
// pluggable parts: workload drivers, arrival processes, invalidation
// instructions and load-balancer policies. Each package keeps one Table and
// exposes it through its own Register/Lookup/Names functions.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Table maps names to registered values. It is safe for concurrent use:
// packages register their built-ins at init, and callers may add entries
// at run time.
type Table[T any] struct {
	kind string
	mu   sync.RWMutex
	m    map[string]T
}

// New returns an empty table. kind names the entries in panics and errors
// ("arrival process", ...); callers prefix errors with their package name.
func New[T any](kind string) *Table[T] {
	return &Table[T]{kind: kind, m: map[string]T{}}
}

// Add registers v under name. An empty or duplicate name panics:
// registration is a programming act, not a runtime condition.
func (t *Table[T]) Add(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: %s registered with an empty name", t.kind))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[name]; dup {
		panic(fmt.Sprintf("registry: %s %q registered twice", t.kind, name))
	}
	t.m[name] = v
}

// Lookup returns the value registered under name.
func (t *Table[T]) Lookup(name string) (T, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.m[name]
	return v, ok
}

// Get returns the value registered under name, or an error listing the
// registered names.
func (t *Table[T]) Get(name string) (T, error) {
	v, ok := t.Lookup(name)
	if !ok {
		return v, fmt.Errorf("unknown %s %q (registered: %v)", t.kind, name, t.Names())
	}
	return v, nil
}

// Names returns the registered names, sorted.
func (t *Table[T]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.m))
	for n := range t.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
