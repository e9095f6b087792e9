package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sweeper/internal/machine"
	"sweeper/internal/nic"
)

func TestBuiltinSpecsValidate(t *testing.T) {
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q: %v", s.Name, err)
		}
	}
}

func TestBuiltinJSONRoundTrip(t *testing.T) {
	for _, want := range Builtins() {
		b, err := Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Name, err)
		}
		got, err := Load(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("%s: load: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the spec\n got: %+v\nwant: %+v", want.Name, got, want)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	cases := map[string]string{
		"top level":  `{"name": "x", "bogus": 1}`,
		"machine":    `{"name": "x", "machine": {"workload": "kvs", "frobnicate": 2}}`,
		"variant":    `{"name": "x", "variants": [{"mode": "dma", "whoops": true}]}`,
		"sweep axis": `{"name": "x", "sweep": [{"points": [{"label": "a"}], "extra": 1}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: unknown field accepted", name)
		}
	}
}

func TestLoadRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"no name":             `{"machine": {"workload": "kvs"}}`,
		"unknown knob":        `{"name": "x", "machine": {"set": {"frobnicate": 1}}}`,
		"unknown mode":        `{"name": "x", "variants": [{"mode": "warp"}]}`,
		"zero ddio ways":      `{"name": "x", "variants": [{"mode": "ddio"}]}`,
		"unlabeled point":     `{"name": "x", "sweep": [{"points": [{"set": {"ring_slots": 512}}]}]}`,
		"empty axis":          `{"name": "x", "sweep": [{"points": []}]}`,
		"bad machine":         `{"name": "x", "machine": {"set": {"ring_slots": 1000}}}`,
		"bad workload":        `{"name": "x", "machine": {"workload": "nonesuch"}}`,
		"bad partition":       `{"name": "x", "machine": {"set": {"partition_split": 12}}}`,
		"removed sample_mode": `{"name": "x", "machine": {"sample_mode": "fixed"}}`,
		"removed sample knob": `{"name": "x", "machine": {"set": {"sample_detailed_cycles": 32768}}}`,
		"huge offered load":   `{"name": "x", "machine": {"set": {"offered_mrps": 1e300}}}`,
		"trailing data":       `{"name": "x"} {"name": "y"}`,
		"no mem channels":     `{"name": "x", "machine": {"set": {"mem_channels": 0}}}`,
		"removed shards":      `{"name": "x", "machine": {"set": {"shards": 2}}}`,
		"removed xmem_workload": `{"name": "x", "machine": {"workload": "l3fwd-l1", "xmem_workload": "xmem",
			"set": {"xmem_cores": 2}}}`,
		"spike range": `{"name": "x", "machine": {"set": {"spike_prob": 0.5,
			"spike_min_cycles": 100, "spike_max_cycles": 10}}}`,
		"negative packet":      `{"name": "x", "machine": {"set": {"packet_bytes": -64}}}`,
		"negative poll":        `{"name": "x", "machine": {"set": {"poll_cycles": -1}}}`,
		"fractional ring":      `{"name": "x", "machine": {"set": {"ring_slots": 1024.7}}}`,
		"negative mlp":         `{"name": "x", "machine": {"set": {"mlp_width": -4}}}`,
		"negative depth":       `{"name": "x", "machine": {"set": {"closed_loop_depth": -3}}}`,
		"fractional partition": `{"name": "x", "machine": {"set": {"partition_split": 4.5}}}`,
		"removed nodes":        `{"name": "x", "machine": {"set": {"nodes": 2}}}`,
		"removed fabric knob":  `{"name": "x", "machine": {"set": {"fabric_link_lat_cycles": 5}}}`,
		"removed topology":     `{"name": "x", "machine": {"topology": "star"}}`,
		"removed lb_policy":    `{"name": "x", "machine": {"lb_policy": "flow-hash"}}`,

		// Names retired with trace replay and the arrival envelopes; each
		// document was valid while they lived.
		"removed arrival_trace":          `{"name": "x", "machine": {"arrival_trace": "x.bin"}}`,
		"removed arrival_diurnal_period": `{"name": "x", "machine": {"set": {"arrival_diurnal_period": 100000}}}`,
		"removed arrival_diurnal_amp": `{"name": "x", "machine": {"set": {"arrival_diurnal_period": 100000,
			"arrival_diurnal_amp": 0.5}}}`,
		"removed arrival_flows": `{"name": "x", "machine": {"set": {"arrival_flows": 4}}}`,

		// Names retired with IDIO steering, the IAT way controller, NeBuLa
		// dropping and the sampler and warm-fill config switches; each
		// document was valid while they lived.
		"removed idio mode":          `{"name": "x", "variants": [{"mode": "idio"}]}`,
		"removed dynamic_ddio_epoch": `{"name": "x", "machine": {"set": {"dynamic_ddio_epoch": 50000}}}`,
		"removed nebula_drop_depth":  `{"name": "x", "machine": {"set": {"nebula_drop_depth": 32}}}`,
		"removed obs_sample_cycles":  `{"name": "x", "machine": {"set": {"obs_sample_cycles": 4096}}}`,
		"removed warm_llc":           `{"name": "x", "machine": {"warm_llc": false}}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Load(strings.NewReader(`{"name": "x", "machine": {"set": {"seed": -3}}}`)); err != nil {
		t.Errorf("negative seed rejected: %v", err)
	}
}

// TestShippedSpecFiles proves every examples/scenarios/*.json parses,
// validates, and stays in lockstep with the builtin it ships.
func TestShippedSpecFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		got, err := LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		want, ok := Builtin(got.Name)
		if !ok {
			t.Errorf("%s: names unknown builtin %q", e.Name(), got.Name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: diverged from builtin %q; regenerate with scenario.Marshal", e.Name(), got.Name)
		}
		seen[got.Name] = true
	}
	for _, name := range BuiltinNames() {
		if !seen[name] {
			t.Errorf("builtin %q has no spec file under %s", name, dir)
		}
	}
}

// TestExpandOrdering pins the run order and labels the CSV goldens depend
// on: axes outermost in declaration order, variants innermost.
func TestExpandOrdering(t *testing.T) {
	runs, err := MustSpec("fig1").Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 15 {
		t.Fatalf("fig1: %d runs, want 15", len(runs))
	}
	wantParams := []string{"512 buf", "1024 buf", "2048 buf"}
	wantVariants := []string{"DMA", "DDIO 2 Ways", "DDIO 4 Ways", "DDIO 6 Ways", "Ideal DDIO"}
	for i, r := range runs {
		if p := wantParams[i/5]; r.Param != p {
			t.Errorf("run %d: param %q, want %q", i, r.Param, p)
		}
		if v := wantVariants[i%5]; r.Variant.DisplayName() != v {
			t.Errorf("run %d: variant %q, want %q", i, r.Variant.DisplayName(), v)
		}
	}

	runs, err = MustSpec("fig8").Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3*3*7 {
		t.Fatalf("fig8: %d runs, want 63", len(runs))
	}
	// fig8's footprint labels contain "/" themselves; joined params escape
	// it so the two axes split back unambiguously.
	if got, want := runs[0].Param, `512B\/512 buf/3ch`; got != want {
		t.Errorf("fig8 first param %q, want %q", got, want)
	}
	if got, want := SplitParam(runs[0].Param), []string{"512B/512 buf", "3ch"}; !reflect.DeepEqual(got, want) {
		t.Errorf("fig8 first param splits to %q, want %q", got, want)
	}
	last := runs[len(runs)-1]
	if got, want := last.Param, `1024B\/2048 buf/8ch`; got != want {
		t.Errorf("fig8 last param %q, want %q", got, want)
	}
	if got, want := last.Variant.DisplayName(), "Ideal DDIO"; got != want {
		t.Errorf("fig8 last variant %q, want %q", got, want)
	}
}

// TestExpandConfigsMatchHandBuilt proves spec expansion reproduces the
// machine configurations the harness used to assemble by hand.
func TestExpandConfigsMatchHandBuilt(t *testing.T) {
	runs, err := MustSpec("fig2").Expand()
	if err != nil {
		t.Fatal(err)
	}
	// First run: l3fwd, 2048 rings, D=50, 2-way DDIO.
	want := machine.DefaultConfig()
	want.Workload = "l3fwd"
	want.PacketBytes = 1024
	want.ItemBytes = 0
	want.RingSlots = 2048
	want.TXSlots = 2048
	want.ClosedLoopDepth = 50
	want.NICMode = nic.ModeDDIO
	want.DDIOWays = 2
	got := runs[0]
	if got.Config != want {
		t.Errorf("fig2 run 0:\n got %+v\nwant %+v", got.Config, want)
	}
	if got.ClosedLoopDepth != 50 {
		t.Errorf("fig2 run 0: ClosedLoopDepth %d, want 50", got.ClosedLoopDepth)
	}

	// Ideal variant leaves DDIOWays at the base default.
	ideal := runs[3]
	if ideal.Config.NICMode != nic.ModeIdeal {
		t.Errorf("fig2 run 3: mode %v, want ideal", ideal.Config.NICMode)
	}
}

func TestConfigOverrides(t *testing.T) {
	cfg, err := MustSpec("kvs").Config(map[string]float64{
		"item_bytes":   512,
		"packet_bytes": 512,
		"ring_slots":   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ItemBytes != 512 || cfg.PacketBytes != 512 || cfg.RingSlots != 512 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.TXSlots != 128 {
		t.Errorf("TXSlots %d, want the KVS default 128", cfg.TXSlots)
	}

	if _, err := MustSpec("kvs").Config(map[string]float64{"ring_slots": 1000}); err == nil {
		t.Error("non-power-of-two ring accepted")
	}
}

func TestPartitionSplitKnob(t *testing.T) {
	cfg := MustConfig("collocation", map[string]float64{"partition_split": 4})
	if cfg.NICWayMask == 0 || cfg.NetCPUWayMask == 0 || cfg.XMemWayMask == 0 {
		t.Fatalf("partition masks not set: %+v", cfg)
	}
	if cfg.NICWayMask&cfg.XMemWayMask != 0 {
		t.Errorf("NIC and X-Mem partitions overlap: %b vs %b", cfg.NICWayMask, cfg.XMemWayMask)
	}
}

// TestParamEscaping locks the label-joining fix: axis labels containing the
// separator are escaped in Param and recovered exactly by SplitParam, so a
// two-axis sweep can never masquerade as a three-axis one.
func TestParamEscaping(t *testing.T) {
	cases := []struct {
		labels []string
		param  string
	}{
		{[]string{"512B/512 buf", "3ch"}, `512B\/512 buf/3ch`},
		{[]string{"a", "b", "c"}, "a/b/c"},
		{[]string{`back\slash`, "x/y"}, `back\\slash/x\/y`},
		{[]string{"plain"}, "plain"},
		{nil, ""},
	}
	for _, c := range cases {
		if got := joinLabels(c.labels); got != c.param {
			t.Errorf("joinLabels(%q) = %q, want %q", c.labels, got, c.param)
		}
		if got := SplitParam(c.param); !reflect.DeepEqual(got, c.labels) {
			t.Errorf("SplitParam(%q) = %q, want %q", c.param, got, c.labels)
		}
	}
	// The ambiguous pair that motivated the escape: distinct label sets
	// must produce distinct params.
	a := joinLabels([]string{"512B/512 buf", "3ch"})
	b := joinLabels([]string{"512B", "512 buf", "3ch"})
	if a == b {
		t.Fatalf("ambiguous params: %q", a)
	}
}

// TestTierKnobValidation checks the hybrid memory tier and
// invalidation-instruction knobs: contradictory combinations must fail at
// expansion, before any simulation runs.
func TestTierKnobValidation(t *testing.T) {
	bad := map[string]Spec{
		"unknown instruction": {Name: "x", Machine: Knobs{InvalidateInsn: "clzap"}},
		"unknown tier policy": {Name: "x", Machine: Knobs{MemTierPolicy: "warm"}},
		"tier split past address space": {Name: "x", Machine: Knobs{MemTierPolicy: "static",
			Set: map[string]float64{"mem_tier_split": float64(uint64(1) << 49)}}},
		"tier zero bandwidth": {Name: "x", Machine: Knobs{MemTierPolicy: "static",
			Set: map[string]float64{"mem_tier_bw_gbps": 0}}},
		"tier zero read latency": {Name: "x", Machine: Knobs{MemTierPolicy: "static",
			Set: map[string]float64{"mem_tier_read_lat": 0}}},
		"hot epoch too short": {Name: "x", Machine: Knobs{MemTierPolicy: "hotpage",
			Set: map[string]float64{"mem_tier_hot_epoch": 16}}},
		"negative simf batch": {Name: "x", Machine: Knobs{InvalidateInsn: "simf",
			Set: map[string]float64{"simf_batch_lines": -1}}},
	}
	for name, s := range bad {
		if _, err := s.Expand(); err == nil {
			t.Errorf("%s: expanded", name)
		}
	}
	good := Spec{Name: "x", Machine: Knobs{InvalidateInsn: "simf", MemTierPolicy: "hotpage",
		Set: map[string]float64{"mem_tier_split": 1 << 24, "simf_batch_lines": 32}}}
	if _, err := good.Expand(); err != nil {
		t.Errorf("tiered simf spec rejected: %v", err)
	}
}
