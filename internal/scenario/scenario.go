// Package scenario defines declarative experiment scenarios: a JSON-friendly
// description of a machine configuration, the packet-injection variants to
// compare, and the parameter axes to sweep. The experiment harness and the
// sweepersim CLI consume scenarios instead of hand-assembling machine
// configurations, so a new study is a spec file, not a code change.
package scenario

import (
	"fmt"
	"strings"

	"sweeper/internal/cache"
	"sweeper/internal/cluster"
	"sweeper/internal/fabric"
	"sweeper/internal/machine"
	"sweeper/internal/mem"
	"sweeper/internal/nic"
)

// Spec is one declarative scenario: a base machine, the injection variants
// to compare, and the sweep axes to cross. The zero Machine/Variants/Sweep
// all default sensibly: Table I's server, run as configured, no sweep.
type Spec struct {
	// Name identifies the scenario ("fig5", "kvs", ...).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Machine overlays knobs onto the Table I default configuration.
	Machine Knobs `json:"machine"`
	// Variants are the injection policies swept innermost; empty means
	// "run the machine exactly as configured".
	Variants []Variant `json:"variants,omitempty"`
	// Sweep axes are crossed outermost-first; each point's label
	// contributes to the run's parameter name.
	Sweep []Axis `json:"sweep,omitempty"`
}

// Knobs overlays a base machine configuration. String-valued knobs are
// explicit fields; numeric knobs live in Set, keyed by the names accepted by
// applyKnob (ring_slots, item_bytes, mem_channels, ...).
type Knobs struct {
	// Workload names the networked application in the workload registry;
	// empty keeps the default (the KVS).
	Workload string `json:"workload,omitempty"`
	// XMemWorkload names the background stream for collocated cores.
	XMemWorkload string `json:"xmem_workload,omitempty"`
	// SampleMode selects sampled simulation ("fixed" or "ci"; empty or
	// "off" runs fully detailed). The numeric sampling knobs
	// (sample_detailed_cycles, sample_ff_cycles, ...) live in Set.
	SampleMode string `json:"sample_mode,omitempty"`
	// WarmLLC overrides the warm-fill default when non-nil.
	WarmLLC *bool `json:"warm_llc,omitempty"`
	// Arrival names the open-loop arrival process in the nic registry
	// ("poisson", "mmpp", "trace"; empty keeps Poisson), ArrivalTrace
	// the trace file replayed by the "trace" process. The numeric
	// arrival knobs (arrival_burst_ratio, arrival_flows, ...) live in
	// Set.
	Arrival      string `json:"arrival,omitempty"`
	ArrivalTrace string `json:"arrival_trace,omitempty"`
	// Topology and LBPolicy select the cluster fabric wiring and the
	// load-balancer policy when the "nodes" knob raises the run to a
	// rack; both default empty (star, cluster.DefaultPolicy). The node
	// count itself and the fabric_* sizing are numeric knobs in Set, so
	// axes can sweep them.
	Topology string `json:"topology,omitempty"`
	LBPolicy string `json:"lb_policy,omitempty"`
	// InvalidateInsn names the relinquish instruction in the core
	// registry ("clsweep", "clflush", "clwb", "simf"; empty keeps
	// clsweep). The simf_* batch knobs live in Set.
	InvalidateInsn string `json:"invalidate_insn,omitempty"`
	// MemTierPolicy enables the hybrid second memory tier under the named
	// placement policy ("static" or "hotpage"; empty keeps the machine
	// DRAM-only), starting from mem.DefaultTierConfig. The numeric tier
	// knobs (mem_tier_split, mem_tier_read_lat, ...) live in Set.
	MemTierPolicy string `json:"mem_tier_policy,omitempty"`
	// Set holds numeric knob overrides, applied in any order (each knob
	// writes an independent configuration field).
	Set map[string]float64 `json:"set,omitempty"`
}

// Variant is one packet-injection policy (and Sweeper toggle) of a sweep.
type Variant struct {
	// Name labels the variant in tables; empty derives the conventional
	// label ("DMA", "Ideal DDIO", "DDIO 4 Ways + Sweeper").
	Name string `json:"name,omitempty"`
	// Mode is "dma", "ddio", "idio" or "ideal"; empty leaves the base
	// machine's mode untouched.
	Mode string `json:"mode,omitempty"`
	// Ways is the DDIO way allocation (ddio mode only).
	Ways int `json:"ways,omitempty"`
	// Sweeper enables application-driven RX relinquishing; TXSweep
	// additionally sweeps transmit buffers from the NIC side.
	Sweeper bool `json:"sweeper,omitempty"`
	TXSweep bool `json:"tx_sweep,omitempty"`
}

// Axis is one swept parameter dimension.
type Axis struct {
	// Name documents the axis ("rx buffers per core").
	Name string `json:"name,omitempty"`
	// Points are visited in order; the cross product of all axes is
	// taken outermost-first.
	Points []Point `json:"points"`
}

// Point is one value of an axis: a label and the knobs it sets.
type Point struct {
	// Label contributes to the run's parameter name; multi-axis labels
	// join with "/" ("1024B" + "512 buf" -> "1024B/512 buf").
	Label string `json:"label"`
	// Set assigns numeric knobs, like Knobs.Set.
	Set map[string]float64 `json:"set,omitempty"`
}

// Run is one fully expanded simulation of a scenario.
type Run struct {
	// Param is the joined axis labels ("1024B/512 buf"); empty for
	// sweepless scenarios. Separators inside individual labels are
	// escaped ("\/"), so SplitParam recovers the labels unambiguously.
	Param string
	// Variant is the injection policy applied to Config (zero for
	// variantless scenarios).
	Variant Variant
	// Config is the complete, validated machine configuration (the
	// per-node template when Cluster is set).
	Config machine.Config
	// ClosedLoopDepth mirrors Config.ClosedLoopDepth for harnesses that
	// normalize traffic knobs before running.
	ClosedLoopDepth int
	// Cluster is non-nil when the "nodes" knob raises this run to a
	// rack: the complete, validated cluster configuration (its Node is
	// Config). Harnesses run it through cluster.New instead of
	// machine.New.
	Cluster *cluster.Config
}

// NICMode parses the variant's mode string.
func (v Variant) NICMode() (nic.Mode, error) {
	switch v.Mode {
	case "dma":
		return nic.ModeDMA, nil
	case "ddio":
		return nic.ModeDDIO, nil
	case "idio":
		return nic.ModeIDIO, nil
	case "ideal":
		return nic.ModeIdeal, nil
	default:
		return 0, fmt.Errorf("scenario: unknown NIC mode %q (want dma, ddio, idio or ideal)", v.Mode)
	}
}

// DisplayName returns the variant's table label, deriving the conventional
// one when unset.
func (v Variant) DisplayName() string {
	if v.Name != "" {
		return v.Name
	}
	switch v.Mode {
	case "dma":
		return "DMA"
	case "ideal":
		return "Ideal DDIO"
	case "idio":
		return "IDIO"
	case "ddio":
		name := fmt.Sprintf("DDIO %d Ways", v.Ways)
		if v.Sweeper {
			name += " + Sweeper"
		}
		return name
	default:
		return "as configured"
	}
}

// Apply stamps the variant onto a configuration. An empty-mode variant is a
// no-op, leaving the base machine's injection policy in place.
func (v Variant) Apply(cfg machine.Config) (machine.Config, error) {
	if v.Mode == "" {
		return cfg, nil
	}
	mode, err := v.NICMode()
	if err != nil {
		return cfg, err
	}
	cfg.NICMode = mode
	if mode == nic.ModeDDIO {
		if v.Ways <= 0 {
			return cfg, fmt.Errorf("scenario: variant %q needs positive DDIO ways", v.DisplayName())
		}
		cfg.DDIOWays = v.Ways
	}
	// Mutate the sweep toggles in place rather than overwriting the whole
	// Sweeper config, so the base machine's instruction selection and
	// simf batch knobs survive variant application.
	cfg.Sweeper.RXSweep = v.Sweeper
	cfg.Sweeper.TXSweep = v.TXSweep
	cfg.Sweeper.IssueCyclesPerLine = 1
	if v.TXSweep {
		cfg.SweepTX = true
	}
	return cfg, nil
}

// runConfig is the composite configuration a sweep walks: the machine (or
// per-node template) plus the cluster-level knobs that live outside
// machine.Config. nodes <= 1 leaves the run a standalone machine.
type runConfig struct {
	m      machine.Config
	nodes  int
	fabric fabric.Config
}

// applyKnob writes one numeric knob into a run configuration. Every knob
// targets an independent field (partition_split reads only the immutable
// LLC way count), so a knob set may be applied in any order.
func applyKnob(cfg *runConfig, knob string, v float64) error {
	switch knob {
	case "nodes":
		cfg.nodes = int(v)
		return nil
	case "fabric_link_gbps":
		cfg.fabric.LinkGBps = v
		return nil
	case "fabric_link_lat_cycles":
		cfg.fabric.LinkLatCycles = uint64(v)
		return nil
	case "fabric_switch_lat_cycles":
		cfg.fabric.SwitchLatCycles = uint64(v)
		return nil
	case "fabric_queue_depth":
		cfg.fabric.QueueDepth = int(v)
		return nil
	case "fabric_retry_cycles":
		cfg.fabric.RetryCycles = uint64(v)
		return nil
	}
	return applyMachineKnob(&cfg.m, knob, v)
}

func applyMachineKnob(cfg *machine.Config, knob string, v float64) error {
	switch knob {
	case "net_cores":
		cfg.NetCores = int(v)
	case "xmem_cores":
		cfg.XMemCores = int(v)
	case "ring_slots":
		cfg.RingSlots = int(v)
	case "tx_slots":
		cfg.TXSlots = int(v)
	case "packet_bytes":
		cfg.PacketBytes = uint64(v)
	case "item_bytes":
		cfg.ItemBytes = uint64(v)
	case "ddio_ways":
		cfg.DDIOWays = int(v)
	case "offered_mrps":
		cfg.OfferedMrps = v
	case "closed_loop_depth":
		cfg.ClosedLoopDepth = int(v)
	case "mem_channels":
		cfg.Mem.Channels = int(v)
	case "spike_prob":
		cfg.SpikeProb = v
	case "spike_min_cycles":
		cfg.SpikeMinCycles = uint64(v)
	case "spike_max_cycles":
		cfg.SpikeMaxCycles = uint64(v)
	case "poll_cycles":
		cfg.PollCycles = uint64(v)
	case "mlp_width":
		cfg.MLPWidth = int(v)
	case "seed":
		cfg.Seed = int64(v)
	case "dynamic_ddio_epoch":
		cfg.DynamicDDIOEpoch = uint64(v)
	case "obs_sample_cycles":
		cfg.ObsSampleCycles = uint64(v)
	case "nebula_drop_depth":
		cfg.NeBuLaDropDepth = int(v)
	case "arrival_burst_ratio":
		cfg.Arrival.BurstRatio = v
	case "arrival_burst_dwell":
		cfg.Arrival.BurstDwellCycles = uint64(v)
	case "arrival_diurnal_period":
		cfg.Arrival.DiurnalPeriodCycles = uint64(v)
	case "arrival_diurnal_amp":
		cfg.Arrival.DiurnalAmplitude = v
	case "arrival_flows":
		cfg.Arrival.Flows = int(v)
	case "sample_detailed_cycles":
		cfg.Sampling.DetailedCycles = uint64(v)
	case "sample_ff_cycles":
		cfg.Sampling.FastForwardCycles = uint64(v)
	case "sample_intervals":
		cfg.Sampling.Intervals = int(v)
	case "sample_max_intervals":
		cfg.Sampling.MaxIntervals = int(v)
	case "sample_warmup_window":
		cfg.Sampling.WarmupWindowCycles = uint64(v)
	case "sample_warmup_tol":
		cfg.Sampling.WarmupMetricTol = v
	case "sample_warmup_windows":
		cfg.Sampling.WarmupWindows = int(v)
	case "sample_max_rel_ci":
		cfg.Sampling.MaxRelCI = v
	case "mem_tier_split":
		cfg.MemTier.DRAMBytes = uint64(v)
	case "mem_tier_read_lat":
		cfg.MemTier.ReadLatency = uint64(v)
	case "mem_tier_write_lat":
		cfg.MemTier.WriteLatency = uint64(v)
	case "mem_tier_bw_gbps":
		cfg.MemTier.BandwidthGBps = v
	case "mem_tier_hot_thresh":
		cfg.MemTier.HotPageThreshold = int(v)
	case "mem_tier_hot_epoch":
		cfg.MemTier.HotPageEpochCycles = uint64(v)
	case "simf_batch_lines":
		cfg.Sweeper.SIMFBatchLines = int(v)
	case "simf_batch_cycles":
		cfg.Sweeper.SIMFBatchCycles = int(v)
	case "simf_setup_cycles":
		cfg.Sweeper.SIMFSetupCycles = int(v)
	case "partition_split":
		// The §VI-E disjoint partition: the NIC and networked cores get
		// the first n LLC ways, collocated tenants the rest.
		n := int(v)
		if n <= 0 || n >= cfg.Cache.LLCWays {
			return fmt.Errorf("scenario: partition_split %d outside (0,%d)", n, cfg.Cache.LLCWays)
		}
		cfg.NICWayMask = cache.MaskAll(n)
		cfg.NetCPUWayMask = cache.MaskAll(n)
		cfg.XMemWayMask = cache.MaskRange(n, cfg.Cache.LLCWays)
	default:
		return fmt.Errorf("scenario: unknown knob %q", knob)
	}
	return nil
}

// baseConfig builds the spec's run configuration before axes and variants:
// Table I defaults (and the default fabric, so partial fabric_* overrides
// compose) overlaid with the spec's knobs.
func (s Spec) baseConfig() (runConfig, error) {
	rc := runConfig{m: machine.DefaultConfig(), fabric: fabric.DefaultConfig()}
	if s.Machine.Workload != "" {
		rc.m.Workload = s.Machine.Workload
	}
	if s.Machine.XMemWorkload != "" {
		rc.m.XMemWorkload = s.Machine.XMemWorkload
	}
	if s.Machine.SampleMode != "" {
		rc.m.Sampling.Mode = s.Machine.SampleMode
	}
	if s.Machine.Arrival != "" {
		rc.m.Arrival.Process = s.Machine.Arrival
	}
	if s.Machine.ArrivalTrace != "" {
		rc.m.Arrival.TracePath = s.Machine.ArrivalTrace
	}
	if s.Machine.WarmLLC != nil {
		rc.m.WarmLLC = *s.Machine.WarmLLC
	}
	if s.Machine.InvalidateInsn != "" {
		rc.m.Sweeper.Insn = s.Machine.InvalidateInsn
	}
	if s.Machine.MemTierPolicy != "" {
		rc.m.MemTier = mem.DefaultTierConfig(s.Machine.MemTierPolicy)
	}
	for knob, v := range s.Machine.Set {
		if err := applyKnob(&rc, knob, v); err != nil {
			return rc, err
		}
	}
	return rc, nil
}

// clusterConfig assembles and validates the cluster configuration for a
// walked run configuration whose nodes knob exceeds 1.
func (s Spec) clusterConfig(rc runConfig, node machine.Config) (*cluster.Config, error) {
	cc := &cluster.Config{
		Node:     node,
		Nodes:    rc.nodes,
		Topology: s.Machine.Topology,
		LBPolicy: s.Machine.LBPolicy,
		Fabric:   rc.fabric,
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	return cc, nil
}

// Config expands a sweepless view of the scenario: the base machine with
// optional extra knob overrides, no variant applied. Harnesses use it to
// derive one-off machine configurations from a shipped scenario; scenarios
// whose knobs raise a cluster go through ClusterConfig instead.
func (s Spec) Config(overrides map[string]float64) (machine.Config, error) {
	rc, err := s.baseConfig()
	if err != nil {
		return rc.m, err
	}
	for knob, v := range overrides {
		if err := applyKnob(&rc, knob, v); err != nil {
			return rc.m, err
		}
	}
	if rc.nodes > 1 {
		return rc.m, fmt.Errorf("scenario %q: %d nodes is a cluster; expand through ClusterConfig", s.Name, rc.nodes)
	}
	if err := rc.m.Validate(); err != nil {
		return rc.m, err
	}
	return rc.m, nil
}

// ClusterConfig expands a sweepless cluster view of the scenario: the base
// machine as the node template plus the cluster knobs, with optional
// overrides. Node counts of 0/1 yield a valid one-node cluster, so
// harnesses can raise any scenario to a rack with a "nodes" override.
func (s Spec) ClusterConfig(overrides map[string]float64) (*cluster.Config, error) {
	rc, err := s.baseConfig()
	if err != nil {
		return nil, err
	}
	for knob, v := range overrides {
		if err := applyKnob(&rc, knob, v); err != nil {
			return nil, err
		}
	}
	if rc.nodes < 1 {
		rc.nodes = 1
	}
	return s.clusterConfig(rc, rc.m)
}

// Expand crosses the sweep axes (outermost-first) with the variants
// (innermost) into the scenario's full run list, validating every resulting
// configuration. A sweepless spec yields one run per variant; a variantless
// spec runs each point as configured.
func (s Spec) Expand() ([]Run, error) {
	base, err := s.baseConfig()
	if err != nil {
		return nil, err
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}

	var runs []Run
	var walk func(axis int, labels []string, rc runConfig) error
	walk = func(axis int, labels []string, rc runConfig) error {
		if axis == len(s.Sweep) {
			for _, v := range variants {
				final, err := v.Apply(rc.m)
				if err != nil {
					return err
				}
				if err := final.Validate(); err != nil {
					return fmt.Errorf("scenario %q, param %q, variant %q: %w",
						s.Name, joinLabels(labels), v.DisplayName(), err)
				}
				run := Run{
					Param:           joinLabels(labels),
					Variant:         v,
					Config:          final,
					ClosedLoopDepth: final.ClosedLoopDepth,
				}
				if rc.nodes > 1 {
					cc, err := s.clusterConfig(rc, final)
					if err != nil {
						return fmt.Errorf("scenario %q, param %q, variant %q: %w",
							s.Name, run.Param, v.DisplayName(), err)
					}
					run.Cluster = cc
				}
				runs = append(runs, run)
			}
			return nil
		}
		ax := s.Sweep[axis]
		for _, pt := range ax.Points {
			c := rc
			for knob, v := range pt.Set {
				if err := applyKnob(&c, knob, v); err != nil {
					return fmt.Errorf("scenario %q, axis %d point %q: %w", s.Name, axis, pt.Label, err)
				}
			}
			if err := walk(axis+1, append(labels, pt.Label), c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, nil, base); err != nil {
		return nil, err
	}
	return runs, nil
}

// escapeLabel escapes the label-join separator (and the escape character
// itself) inside one axis label, so a Param like "512B\/512 buf/3ch"
// splits unambiguously back into its labels even when a label contains
// "/". Before this, fig8's "512B/512 buf" joined with "3ch" was
// indistinguishable from a three-axis sweep.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "/", `\/`)
}

// joinLabels builds a Run.Param from axis labels, escaping each label.
func joinLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	esc := make([]string, len(labels))
	for i, l := range labels {
		esc[i] = escapeLabel(l)
	}
	return strings.Join(esc, "/")
}

// SplitParam splits a Run.Param back into its original axis labels,
// undoing joinLabels' escaping.
func SplitParam(p string) []string {
	if p == "" {
		return nil
	}
	var out []string
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		switch c := p[i]; c {
		case '\\':
			if i+1 < len(p) {
				i++
				b.WriteByte(p[i])
			}
		case '/':
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	return append(out, b.String())
}

// Validate checks the spec structurally and expands it, so every swept
// configuration is vetted by machine validation before any simulation runs.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	for i, ax := range s.Sweep {
		if len(ax.Points) == 0 {
			return fmt.Errorf("scenario %q: axis %d has no points", s.Name, i)
		}
		for j, pt := range ax.Points {
			if pt.Label == "" {
				return fmt.Errorf("scenario %q: axis %d point %d has no label", s.Name, i, j)
			}
		}
	}
	for _, v := range s.Variants {
		if v.Mode == "" {
			continue
		}
		if _, err := v.NICMode(); err != nil {
			return err
		}
	}
	_, err := s.Expand()
	return err
}
