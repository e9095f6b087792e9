package scenario

import (
	"fmt"
	"sort"

	"sweeper/internal/machine"
	"sweeper/internal/workload"
)

// Variant constructors for the paper's baselines. Names are left empty so
// DisplayName derives the conventional labels and JSON specs stay terse.

func vDMA() Variant   { return Variant{Mode: "dma"} }
func vIdeal() Variant { return Variant{Mode: "ideal"} }

func vDDIO(ways int, sweeper bool) Variant {
	return Variant{Mode: "ddio", Ways: ways, Sweeper: sweeper}
}

// vDDIOPairs returns DDIO n-way without and with Sweeper per way count.
func vDDIOPairs(ways ...int) []Variant {
	var out []Variant
	for _, w := range ways {
		out = append(out, vDDIO(w, false), vDDIO(w, true))
	}
	return out
}

func bufAxis(bufs ...int) Axis {
	ax := Axis{Name: "rx buffers per core"}
	for _, b := range bufs {
		ax.Points = append(ax.Points, Point{
			Label: fmt.Sprintf("%d buf", b),
			Set:   map[string]float64{"ring_slots": float64(b)},
		})
	}
	return ax
}

func depthAxis(depths ...int) Axis {
	ax := Axis{Name: "packets kept queued per core"}
	for _, d := range depths {
		ax.Points = append(ax.Points, Point{
			Label: fmt.Sprintf("D=%d", d),
			Set:   map[string]float64{"closed_loop_depth": float64(d)},
		})
	}
	return ax
}

// kvsKnobs is the paper's KVS server: Table I defaults (1KB items, 1024
// buffers, 128 TX slots) with the registry workload pinned explicitly.
func kvsKnobs() Knobs {
	return Knobs{Workload: workload.NameKVS}
}

// l3fwdKnobs is the §IV-B forwarder: MTU packets, 2048-deep RX and TX rings
// (the forwarder copies every packet, so TX mirrors RX provisioning).
func l3fwdKnobs() Knobs {
	return Knobs{
		Workload: workload.NameL3Fwd,
		Set: map[string]float64{
			"packet_bytes": 1024,
			"item_bytes":   0,
			"ring_slots":   2048,
			"tx_slots":     2048,
		},
	}
}

// collocationKnobs is the §VI-E machine: 12 forwarder cores with an
// L1-resident table collocated with 12 X-Mem instances.
func collocationKnobs() Knobs {
	return Knobs{
		Workload: workload.NameL3FwdL1,
		Set: map[string]float64{
			"net_cores":    12,
			"xmem_cores":   12,
			"packet_bytes": 1024,
			"item_bytes":   0,
			"ring_slots":   2048,
			"tx_slots":     2048,
		},
	}
}

// builtins assembles the shipped scenarios: the three base machines plus the
// sweep-style figures. Figures whose harness logic exceeds a plain sweep
// (6, 9, 10) build on the base scenarios programmatically instead.
func builtins() []Spec {
	return []Spec{
		{
			Name:        "kvs",
			Description: "Table I server running the write-heavy MICA-like KVS",
			Machine:     kvsKnobs(),
		},
		{
			Name:        "l3fwd",
			Description: "DPDK-style L3 forwarder with 2048-deep rings",
			Machine:     l3fwdKnobs(),
		},
		{
			Name:        "collocation",
			Description: "12 L3fwd cores (L1 table) collocated with 12 X-Mem tenants",
			Machine:     collocationKnobs(),
		},
		{
			Name:        "mmpp",
			Description: "KVS under bursty 2-state MMPP arrivals",
			Machine: Knobs{
				Workload: workload.NameKVS,
				Arrival:  "mmpp",
				Set: map[string]float64{
					"arrival_burst_dwell": 131072,
				},
			},
			Variants: []Variant{vDDIO(2, false), vDDIO(2, true)},
			Sweep: []Axis{{Name: "burst ratio", Points: []Point{
				{Label: "R=2", Set: map[string]float64{"arrival_burst_ratio": 2}},
				{Label: "R=8", Set: map[string]float64{"arrival_burst_ratio": 8}},
			}}},
		},
		{
			Name:        "tiers",
			Description: "KVS on a hybrid DRAM+NVM memory with SIMF bulk invalidation",
			Machine: Knobs{
				Workload:       workload.NameKVS,
				InvalidateInsn: "simf",
				MemTierPolicy:  "hotpage",
				// Keep 16 MiB of the heap on DRAM; the rest is tier-1
				// candidate space governed by the hot-page migrator.
				Set: map[string]float64{"mem_tier_split": 16777216},
			},
			Variants: []Variant{vDDIO(2, false), vDDIO(2, true)},
		},
		{
			Name:        "fig1",
			Description: "KVS network data leaks: DMA vs DDIO vs Ideal across ring depths",
			Machine:     kvsKnobs(),
			Variants:    []Variant{vDMA(), vDDIO(2, false), vDDIO(4, false), vDDIO(6, false), vIdeal()},
			Sweep:       []Axis{bufAxis(512, 1024, 2048)},
		},
		{
			Name:        "fig2",
			Description: "L3fwd premature evictions: D packets kept queued per core",
			Machine:     l3fwdKnobs(),
			Variants:    []Variant{vDDIO(2, false), vDDIO(6, false), vDDIO(12, false), vIdeal()},
			Sweep:       []Axis{depthAxis(50, 250, 450)},
		},
		{
			Name:        "fig5",
			Description: "Sweeper vs DDIO configuration: item size x ring depth",
			Machine:     kvsKnobs(),
			Variants:    append(vDDIOPairs(2, 6, 12), vIdeal()),
			Sweep: []Axis{
				{Name: "item size", Points: []Point{
					{Label: "512B", Set: map[string]float64{"item_bytes": 512, "packet_bytes": 512}},
					{Label: "1024B", Set: map[string]float64{"item_bytes": 1024, "packet_bytes": 1024}},
				}},
				bufAxis(512, 1024, 2048),
			},
		},
		{
			Name:        "fig7",
			Description: "Sweeper under premature evictions: deep-queue L3fwd revisited",
			Machine:     l3fwdKnobs(),
			Variants:    append(vDDIOPairs(2, 6, 12), vIdeal()),
			Sweep:       []Axis{depthAxis(250, 450)},
		},
		{
			Name:        "fig8",
			Description: "Memory bandwidth sensitivity: KVS footprints x DDR4 channels",
			Machine:     kvsKnobs(),
			Variants:    append(vDDIOPairs(2, 6, 12), vIdeal()),
			Sweep: []Axis{
				{Name: "footprint", Points: []Point{
					{Label: "512B/512 buf", Set: map[string]float64{
						"item_bytes": 512, "packet_bytes": 512, "ring_slots": 512}},
					{Label: "1024B/512 buf", Set: map[string]float64{
						"item_bytes": 1024, "packet_bytes": 1024, "ring_slots": 512}},
					{Label: "1024B/2048 buf", Set: map[string]float64{
						"item_bytes": 1024, "packet_bytes": 1024, "ring_slots": 2048}},
				}},
				{Name: "DDR4 channels", Points: []Point{
					{Label: "3ch", Set: map[string]float64{"mem_channels": 3}},
					{Label: "4ch", Set: map[string]float64{"mem_channels": 4}},
					{Label: "8ch", Set: map[string]float64{"mem_channels": 8}},
				}},
			},
		},
	}
}

// Builtins returns the shipped scenario specs, sorted by name.
func Builtins() []Spec {
	specs := builtins()
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// BuiltinNames lists the shipped scenario names in sorted order.
func BuiltinNames() []string {
	specs := Builtins()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Builtin looks up a shipped scenario by name.
func Builtin(name string) (Spec, bool) {
	for _, s := range builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MustSpec returns a shipped scenario, panicking on unknown names; it backs
// the experiment harness, where the builtin set is the source of truth.
func MustSpec(name string) Spec {
	s, ok := Builtin(name)
	if !ok {
		panic(fmt.Sprintf("scenario: unknown builtin %q (have %v)", name, BuiltinNames()))
	}
	return s
}

// MustConfig expands a shipped scenario's base machine with overrides,
// panicking on errors; the overrides use the same knob names as spec files.
func MustConfig(name string, overrides map[string]float64) machine.Config {
	cfg, err := MustSpec(name).Config(overrides)
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", name, err))
	}
	return cfg
}
