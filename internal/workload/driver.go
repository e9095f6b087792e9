package workload

import "sweeper/internal/addr"

// Driver is one networked application pluggable into the simulated machine.
// The machine composes a driver purely through this interface: the driver
// owns its address-space layout and converts each arriving packet into the
// access program (the app read/write hooks) a core executes. Implementations
// must be deterministic in the packet tag so runs are reproducible.
type Driver interface {
	Workload

	// Layout allocates (or, after an address-space Reset, re-allocates)
	// the driver's data structures. The machine calls it exactly once per
	// configure, before any traffic is generated; drivers must repeat the
	// same allocation sequence every time so a pooled machine rebuilds the
	// workload at the exact addresses a fresh machine would use.
	Layout(space *addr.Space)

	// ExtraServiceCycles returns additional per-request service delay the
	// workload imposes beyond its plan's compute (zero for most drivers).
	// It must be deterministic in tag.
	ExtraServiceCycles(tag uint64) uint64

	// Snapshot reports the driver's functional counters, in a stable
	// order, for reports and tests.
	Snapshot() []Counter
}

// Counter is one named functional statistic of a driver ("gets", "sets",
// "forwarded", ...).
type Counter struct {
	Name  string
	Value uint64
}

// RequestSizer is implemented by drivers whose request wire size varies by
// tag (a KVS GET carries only a key, a SET the whole item); traffic
// generators consult it to size injected packets.
type RequestSizer interface {
	RequestBytes(tag uint64) uint64
}

// LLCWarmer is implemented by drivers whose steady state keeps the cache
// hierarchy full of dirty application data. When a machine's configuration
// asks for a warm LLC, it pre-fills the hierarchy only for drivers that
// report true, so short measurement windows observe steady-state eviction
// traffic from the first cycle.
type LLCWarmer interface {
	WarmLLC() bool
}

// Stream is one background (non-networked) tenant's memory access stream:
// the collocated-core counterpart of Driver. X-Mem implements it, and the
// machine builds one instance per collocated core.
type Stream interface {
	// Name labels the stream in reports.
	Name() string
	// Layout allocates (or re-allocates) the stream's dataset in the
	// address space and restarts the access sequence from seed. The same
	// determinism contract as Driver.Layout applies.
	Layout(space *addr.Space, seed uint64)
	// Next returns the next line address to access.
	Next() uint64
	// ComputeCycles is the fixed work between access batches.
	ComputeCycles() uint64
	// InstrPerAccess converts an access count into the IPC proxy the
	// collocation figures plot.
	InstrPerAccess() uint64
	// Accesses returns the number of addresses generated so far.
	Accesses() uint64
}
