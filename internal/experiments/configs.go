package experiments

import (
	"fmt"

	"sweeper/internal/machine"
	"sweeper/internal/nic"
	"sweeper/internal/scenario"
)

// Variant is one packet-injection baseline (or baseline+Sweeper) as swept
// across the paper's figures.
type Variant struct {
	Name    string
	Mode    nic.Mode
	Ways    int // DDIO ways; ignored for DMA/Ideal
	Sweeper bool
}

// Apply stamps the variant onto a config. The Sweeper toggle mutates in
// place so the base machine's invalidation-instruction selection survives
// variant application.
func (v Variant) Apply(cfg machine.Config) machine.Config {
	cfg.NICMode = v.Mode
	if v.Mode == nic.ModeDDIO {
		cfg.DDIOWays = v.Ways
	}
	cfg.Sweeper.RXSweep = v.Sweeper
	cfg.Sweeper.IssueCyclesPerLine = 1
	return cfg
}

// DMAVariant, IdealVariant and DDIOVariant build the paper's baselines.
func DMAVariant() Variant   { return Variant{Name: "DMA", Mode: nic.ModeDMA} }
func IdealVariant() Variant { return Variant{Name: "Ideal DDIO", Mode: nic.ModeIdeal} }

// DDIOVariant returns an n-way DDIO configuration, optionally with Sweeper.
func DDIOVariant(ways int, sweeper bool) Variant {
	name := fmt.Sprintf("DDIO %d Ways", ways)
	if sweeper {
		name += " + Sweeper"
	}
	return Variant{Name: name, Mode: nic.ModeDDIO, Ways: ways, Sweeper: sweeper}
}

// ddioPairs returns DDIO n-way with and without Sweeper for each way count.
func ddioPairs(ways ...int) []Variant {
	var out []Variant
	for _, w := range ways {
		out = append(out, DDIOVariant(w, false), DDIOVariant(w, true))
	}
	return out
}

// KVSConfig returns the paper's KVS machine: 24 cores, item-sized packets,
// the given RX ring depth, seeded deterministically.
func KVSConfig(itemBytes uint64, ringSlots int) machine.Config {
	return scenario.MustConfig("kvs", map[string]float64{
		"item_bytes":   float64(itemBytes),
		"packet_bytes": float64(itemBytes),
		"ring_slots":   float64(ringSlots),
	})
}

// L3FwdConfig returns the §IV-B forwarder machine: RX and TX rings of the
// given depth holding MTU-sized packets, and the 16k-rule table.
func L3FwdConfig(ringSlots int) machine.Config {
	return scenario.MustConfig("l3fwd", map[string]float64{
		"ring_slots": float64(ringSlots),
		// The forwarder copies every packet it receives, so its TX ring
		// mirrors the RX ring's provisioning.
		"tx_slots": float64(ringSlots),
	})
}

// CollocationConfig returns the §VI-E machine: 12 forwarder cores with an
// L1-resident table collocated with 12 X-Mem instances.
func CollocationConfig() machine.Config {
	return scenario.MustConfig("collocation", nil)
}
