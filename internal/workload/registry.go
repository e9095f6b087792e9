package workload

import (
	"fmt"

	"sweeper/internal/registry"
)

// Params carries the machine-level knobs a driver factory may consume. It is
// comparable: the machine reuses a live driver across pooled Resets exactly
// when the registry name and Params are unchanged.
type Params struct {
	// PacketBytes is the machine's RX slot / MTU size, and the KVS item
	// size.
	PacketBytes uint64
}

// Registration describes one named workload: how to build its driver and the
// validation hook that must be answerable before a driver exists.
type Registration struct {
	// Name keys the registry; scenario specs and machine configs refer to
	// the workload by this name.
	Name string
	// New builds a driver for the given parameterization.
	New func(p Params) (Driver, error)
	// RespSlotBytes must be nil: the machine sizes every TX slot by
	// PacketBytes. The field remains because perfbench's traced run copies
	// registrations field by field.
	RespSlotBytes func(p Params) uint64
	// Validate vets the parameterization before machine assembly; nil
	// accepts everything.
	Validate func(p Params) error
}

var drivers = registry.New[Registration]("workload")

// Register adds a workload to the driver registry. A missing factory, a
// RespSlotBytes hook, or an empty or duplicate name, panics: registration is
// a program-initialization error, not a runtime condition.
func Register(r Registration) {
	if r.New == nil {
		panic(fmt.Sprintf("workload: %q registered without a factory", r.Name))
	}
	if r.RespSlotBytes != nil {
		panic(fmt.Sprintf("workload: %q sets RespSlotBytes; TX slots are packet-sized", r.Name))
	}
	drivers.Add(r.Name, r)
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) { return drivers.Lookup(name) }

// Names returns the registered workload names, sorted.
func Names() []string { return drivers.Names() }

// NewDriver builds a driver for a registered workload name.
func NewDriver(name string, p Params) (Driver, error) {
	if err := ValidateParams(name, p); err != nil {
		return nil, err
	}
	r, _ := drivers.Lookup(name)
	return r.New(p)
}

// ValidateParams runs a registered workload's parameter validation.
func ValidateParams(name string, p Params) error {
	r, err := drivers.Get(name)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if r.Validate != nil {
		return r.Validate(p)
	}
	return nil
}
