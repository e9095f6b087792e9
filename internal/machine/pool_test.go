package machine

import (
	"reflect"
	"testing"

	"sweeper/internal/core"
	"sweeper/internal/nic"
)

// dirtyVariant derives a same-geometry configuration that differs in every
// non-geometric dimension we can easily flip — seed, Sweeper, NIC mode and
// even the traffic-generator kind — so the recycled machine's prior life
// looks nothing like the run under test.
func dirtyVariant(cfg Config) Config {
	d := cfg
	d.Seed = cfg.Seed + 17
	d.Sweeper = core.Config{RXSweep: !cfg.Sweeper.RXSweep}
	if d.NICMode == nic.ModeDDIO {
		d.NICMode = nic.ModeDMA
	} else {
		d.NICMode = nic.ModeDDIO
	}
	if d.ClosedLoopDepth > 0 {
		d.ClosedLoopDepth = 0
		d.OfferedMrps = 8
	} else {
		d.OfferedMrps = 0
		d.ClosedLoopDepth = 32
	}
	return d
}

// TestPooledMachineBitIdenticalToFresh is the pooling safety net: across
// the determinism cases, a machine recycled from an unrelated
// (same-geometry) run must produce Results that are identical in every
// field to a freshly built machine's.
func TestPooledMachineBitIdenticalToFresh(t *testing.T) {
	for name, mutate := range determinismCases() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg()
			mutate(&cfg)
			fresh := MustNew(cfg).Run(400_000, 300_000)

			pool := NewPool(1)
			m := pool.MustGet(dirtyVariant(cfg))
			m.Run(100_000, 50_000)
			pool.Put(m)

			recycled := pool.MustGet(cfg)
			if recycled != m {
				t.Fatal("pool built a fresh machine instead of recycling")
			}
			pooled := recycled.Run(400_000, 300_000)
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("pooled run diverged from fresh:\n  fresh:  %+v\n  pooled: %+v", fresh, pooled)
			}
		})
	}
}

// checkPooledWalk is the pool/Reset contract over a registry: every case
// runs on a fresh machine (which must see offered load and pass check, when
// non-nil), then one machine walks the registered names in order twice
// through Reset. Both reuse of a part (same name) and its replacement (name
// switch) must reproduce the fresh Results bit-identically.
func checkPooledWalk(t *testing.T, names []string, cases map[string]Config, check func(name string, r Results)) {
	t.Helper()
	fresh := map[string]Results{}
	for name, cfg := range cases {
		r := MustNew(cfg).Run(300_000, 250_000)
		if r.Offered == 0 {
			t.Fatalf("%s: no offered load; generator never ran", name)
		}
		if check != nil {
			check(name, r)
		}
		fresh[name] = r
	}
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	m := MustNew(cases[names[0]])
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			if !(pass == 0 && i == 0) {
				if err := m.Reset(cases[name]); err != nil {
					t.Fatalf("pass %d: Reset to %s: %v", pass, name, err)
				}
			}
			if got := m.Run(300_000, 250_000); !reflect.DeepEqual(got, fresh[name]) {
				t.Fatalf("pass %d: pooled %s diverged from fresh:\n  fresh:  %+v\n  pooled: %+v",
					pass, name, fresh[name], got)
			}
		}
	}
}

// TestPoolGeometryMiss ensures a geometry change cannot recycle an
// incompatible machine: the pool must build a fresh one.
func TestPoolGeometryMiss(t *testing.T) {
	pool := NewPool(2)
	a := pool.MustGet(quickCfg())
	pool.Put(a)

	small := quickCfg()
	small.NetCores = 4
	b := pool.MustGet(small)
	if b == a {
		t.Fatal("pool recycled a machine across different geometries")
	}
}

// TestResetRejectsGeometryMismatch guards the direct Reset API.
func TestResetRejectsGeometryMismatch(t *testing.T) {
	m := MustNew(quickCfg())
	bad := quickCfg()
	bad.RingSlots *= 2
	if err := m.Reset(bad); err == nil {
		t.Fatal("Reset accepted a geometry-changing config")
	}
	// A same-geometry Reset must succeed even after an error attempt.
	good := quickCfg()
	good.Seed = 99
	if err := m.Reset(good); err != nil {
		t.Fatalf("Reset rejected a same-geometry config: %v", err)
	}
}

// TestPoolIdleCap checks that Put drops machines beyond the idle cap rather
// than growing without bound.
func TestPoolIdleCap(t *testing.T) {
	pool := NewPool(1)
	cfg := quickCfg()
	a, b := MustNew(cfg), MustNew(cfg)
	pool.Put(a)
	pool.Put(b) // beyond cap: dropped
	first := pool.MustGet(cfg)
	if first != a {
		t.Fatal("expected the first pooled machine back")
	}
	second := pool.MustGet(cfg)
	if second == b {
		t.Fatal("machine beyond the idle cap was retained")
	}
}
