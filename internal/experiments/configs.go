package experiments

import (
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
	return cfg
}

// DDIOVariant returns an n-way DDIO configuration, optionally with Sweeper,
// labelled as the scenario specs label it.
func DDIOVariant(ways int, sweeper bool) Variant {
	name := scenario.Variant{Mode: "ddio", Ways: ways, Sweeper: sweeper}.DisplayName()
	return Variant{Name: name, Mode: nic.ModeDDIO, Ways: ways, Sweeper: sweeper}
}

// CollocationConfig returns the §VI-E machine: 12 forwarder cores with an
// L1-resident table collocated with 12 X-Mem instances.
func CollocationConfig() machine.Config {
	return scenario.MustConfig("collocation", nil)
}
