package workload

import "sweeper/internal/addr"

// Driver is one networked application pluggable into the simulated machine.
// The machine composes a driver purely through this interface: the driver
// owns its address-space layout and converts each arriving packet into the
// access program (the app read/write hooks) a core executes. Implementations
// must be deterministic in the packet tag so runs are reproducible.
type Driver interface {
	// Layout allocates (or, after an address-space Reset, re-allocates)
	// the driver's data structures. The machine calls it exactly once per
	// configure, before any traffic is generated; drivers must repeat the
	// same allocation sequence every time so a pooled machine rebuilds the
	// workload at the exact addresses a fresh machine would use.
	Layout(space *addr.Space)

	// PlanRequest fills plan for an arriving packet, identified by its
	// generator tag and size. plan is reused across calls. Any service
	// delay beyond the access program belongs in plan.ComputeCycles.
	PlanRequest(tag uint64, pktBytes uint64, plan *Plan)
}

// RequestSizer is implemented by drivers whose request wire size varies by
// tag (a KVS GET carries only a key, a SET the whole item); traffic
// generators consult it to size injected packets.
type RequestSizer interface {
	RequestBytes(tag uint64) uint64
}

// LLCWarmer is implemented by drivers whose steady state keeps the cache
// hierarchy full of dirty application data. The machine pre-fills the
// hierarchy only for drivers that report true, so short measurement windows
// observe steady-state eviction traffic from the first cycle.
type LLCWarmer interface {
	WarmLLC() bool
}
