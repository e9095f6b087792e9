package machine

import (
	"runtime"
	"sync"
)

// Pool recycles machines across runs. Building a Table I KVS machine
// allocates about 17MB (5.6MB of cache metadata, the KVS's 9.6MB of per-key
// log slots, the engine's event slab), and a peak search runs one machine
// per probe (six probes in perfbench's QuickScale kvs-peak search); pooling
// replaces that churn with in-place resets, which clear the cache metadata
// and re-lay-out the key slots instead of reallocating them.
// Machines are keyed by allocation geometry, so a pool can serve a sweep
// that varies rates, seeds, modes and Sweeper settings over one shape.
//
// Pool is safe for concurrent use by the parallel experiment driver. Reset
// guarantees a recycled machine runs bit-identically to a fresh one; see
// Machine.Reset for what "same geometry" requires.
type Pool struct {
	mu      sync.Mutex
	idle    map[geometry][]*Machine
	maxIdle int
}

// NewPool creates a pool retaining at most maxIdle machines per geometry
// (<= 0 selects GOMAXPROCS, matching the experiment driver's parallelism).
func NewPool(maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = runtime.GOMAXPROCS(0)
	}
	return &Pool{idle: make(map[geometry][]*Machine), maxIdle: maxIdle}
}

// Get returns a machine configured per cfg: a recycled one when the pool
// holds a machine of the same geometry, otherwise a fresh build.
func (p *Pool) Get(cfg Config) (*Machine, error) {
	key, err := poolKey(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	var m *Machine
	if q := p.idle[key]; len(q) > 0 {
		m = q[len(q)-1]
		q[len(q)-1] = nil
		p.idle[key] = q[:len(q)-1]
	}
	p.mu.Unlock()
	if m == nil {
		return New(cfg)
	}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// MustGet is Get, panicking on configuration errors; the pooled counterpart
// of MustNew.
func (p *Pool) MustGet(cfg Config) *Machine {
	m, err := p.Get(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Put returns a machine to the pool for reuse. Machines beyond the per-
// geometry idle cap are dropped for the garbage collector. The caller must
// not touch m afterwards.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	key := geometryOf(m.cfg)
	p.mu.Lock()
	if len(p.idle[key]) < p.maxIdle {
		p.idle[key] = append(p.idle[key], m)
	}
	p.mu.Unlock()
}

// poolKey validates cfg far enough to derive its geometry (respSlotBytes
// depends on a workload-specific field).
func poolKey(cfg Config) (geometry, error) {
	if err := cfg.Validate(); err != nil {
		return geometry{}, err
	}
	return geometryOf(cfg), nil
}
