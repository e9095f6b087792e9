// Package scenario defines declarative experiment scenarios: a JSON-friendly
// description of a machine configuration, the packet-injection variants to
// compare, and the parameter axes to sweep. The experiment harness and the
// sweepersim CLI consume scenarios instead of hand-assembling machine
// configurations, so a new study is a spec file, not a code change.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"sweeper/internal/machine"
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
// applyKnob (ring_slots, packet_bytes, mem_channels, ...).
type Knobs struct {
	// Workload names the networked application in the workload registry;
	// empty keeps the default (the KVS).
	Workload string `json:"workload,omitempty"`
	// Set holds numeric knob overrides, applied in any order (each knob
	// writes an independent configuration field).
	Set map[string]float64 `json:"set,omitempty"`
}

// Variant is one packet-injection policy (and Sweeper toggle) of a sweep.
type Variant struct {
	// Name labels the variant in tables; empty derives the conventional
	// label ("DMA", "Ideal DDIO", "DDIO 4 Ways + Sweeper").
	Name string `json:"name,omitempty"`
	// Mode is "dma", "ddio" or "ideal"; empty leaves the base machine's
	// mode untouched.
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
	// escaped ("\/"), so distinct label lists give distinct params.
	Param string
	// Variant is the injection policy applied to Config (zero for
	// variantless scenarios).
	Variant Variant
	// Config is the complete, validated machine configuration.
	Config machine.Config
	// ClosedLoopDepth mirrors Config.ClosedLoopDepth for harnesses that
	// normalize traffic knobs before running.
	ClosedLoopDepth int
}

// NICMode parses the variant's mode string.
func (v Variant) NICMode() (nic.Mode, error) {
	switch v.Mode {
	case "dma":
		return nic.ModeDMA, nil
	case "ddio":
		return nic.ModeDDIO, nil
	case "ideal":
		return nic.ModeIdeal, nil
	default:
		return 0, fmt.Errorf("scenario: unknown NIC mode %q (want dma, ddio or ideal)", v.Mode)
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
	// Sweeper config, so the base machine's instruction selection survives
	// variant application.
	cfg.Sweeper.RXSweep = v.Sweeper
	cfg.Sweeper.TXSweep = v.TXSweep
	return cfg, nil
}

// applyKnobs writes a knob set into a machine configuration. The knobs of
// one set may come in any order: each writes a field of its own, except that
// partition_split also writes ddio_ways, so one set may not name both.
func applyKnobs(m *machine.Config, set map[string]float64) error {
	_, split := set["partition_split"]
	if _, ways := set["ddio_ways"]; split && ways {
		return fmt.Errorf("scenario: partition_split sets ddio_ways too; set only one of them")
	}
	for knob, v := range set {
		if err := applyKnob(m, knob, v); err != nil {
			return err
		}
	}
	return nil
}

// applyKnob writes one numeric knob into a machine configuration.
func applyKnob(m *machine.Config, knob string, v float64) error {
	if knob == "partition_split" {
		// The §VI-E disjoint partition: the NIC's DDIO ways and the
		// networked cores get the first n LLC ways, collocated tenants
		// the rest. Validate bounds n by the LLC's way count.
		var n int
		if err := setKnob(&n, knob, v); err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("scenario: partition_split %d must be positive", n)
		}
		m.PartitionSplit, m.DDIOWays = n, n
		return nil
	}
	field := knobField(m, knob)
	if field == nil {
		return fmt.Errorf("scenario: unknown knob %q", knob)
	}
	return setKnob(field, knob, v)
}

// setKnob stores v in the field, converted to its type. Integer fields
// reject a fractional v and unsigned ones a negative v, instead of
// truncating or wrapping it.
func setKnob(field any, knob string, v float64) error {
	if f, ok := field.(*float64); ok {
		*f = v
		return nil
	}
	if v != math.Trunc(v) {
		return fmt.Errorf("scenario: knob %q needs an integer, got %g", knob, v)
	}
	switch f := field.(type) {
	case *int:
		*f = int(v)
	case *int64:
		*f = int64(v)
	case *uint64:
		if v < 0 {
			return fmt.Errorf("scenario: knob %q must be non-negative, got %g", knob, v)
		}
		*f = uint64(v)
	default:
		panic(fmt.Sprintf("scenario: knob %q writes an unsupported %T", knob, field))
	}
	return nil
}

// knobField returns the field a numeric knob writes, or nil for an unknown
// knob.
func knobField(m *machine.Config, knob string) any {
	switch knob {
	case "net_cores":
		return &m.NetCores
	case "xmem_cores":
		return &m.XMemCores
	case "ring_slots":
		return &m.RingSlots
	case "tx_slots":
		return &m.TXSlots
	case "packet_bytes":
		return &m.PacketBytes
	case "ddio_ways":
		return &m.DDIOWays
	case "offered_mrps":
		return &m.OfferedMrps
	case "closed_loop_depth":
		return &m.ClosedLoopDepth
	case "mem_channels":
		return &m.Mem.Channels
	case "spike_prob":
		return &m.SpikeProb
	case "mlp_width":
		return &m.MLPWidth
	case "seed":
		return &m.Seed
	}
	return nil
}

// baseConfig builds the spec's machine configuration before axes and
// variants: Table I defaults overlaid with the spec's knobs.
func (s Spec) baseConfig() (machine.Config, error) {
	m := machine.DefaultConfig()
	if s.Machine.Workload != "" {
		m.Workload = s.Machine.Workload
	}
	return m, applyKnobs(&m, s.Machine.Set)
}

// Config expands a sweepless view of the scenario: the base machine with
// optional extra knob overrides, no variant applied. Harnesses use it to
// derive one-off machine configurations from a shipped scenario.
func (s Spec) Config(overrides map[string]float64) (machine.Config, error) {
	m, err := s.baseConfig()
	if err != nil {
		return m, err
	}
	if err := applyKnobs(&m, overrides); err != nil {
		return m, err
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
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
	var walk func(axis int, labels []string, m machine.Config) error
	walk = func(axis int, labels []string, m machine.Config) error {
		if axis == len(s.Sweep) {
			for _, v := range variants {
				final, err := v.Apply(m)
				if err != nil {
					return err
				}
				if err := final.Validate(); err != nil {
					return fmt.Errorf("scenario %q, param %q, variant %q: %w",
						s.Name, joinLabels(labels), v.DisplayName(), err)
				}
				runs = append(runs, Run{
					Param:           joinLabels(labels),
					Variant:         v,
					Config:          final,
					ClosedLoopDepth: final.ClosedLoopDepth,
				})
			}
			return nil
		}
		ax := s.Sweep[axis]
		for _, pt := range ax.Points {
			c := m
			if err := applyKnobs(&c, pt.Set); err != nil {
				return fmt.Errorf("scenario %q, axis %d point %q: %w", s.Name, axis, pt.Label, err)
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
// itself) inside one axis label, so a Param like "512B\/512 buf/3ch" stays
// distinct from the three-axis "512B/512 buf/3ch" even when a label
// contains "/".
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
