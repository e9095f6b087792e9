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

// FFRequest summarizes one functionally-executed request: what the core
// would have produced had it run the full plan, minus the per-op detail.
type FFRequest struct {
	RespBytes     uint64
	ComputeCycles uint64
	// ReadFullPacket mirrors Plan.ReadFullPacket: whether the whole payload
	// (vs only the header line) is read from the RX buffer.
	ReadFullPacket bool
}

// FastForwarder is implemented by drivers that can execute a request
// functionally during fast-forward intervals: application-data accesses are
// streamed through touch (in the same order the timed plan would issue them)
// instead of materializing a Plan, and the driver's functional state
// (counters, KVS log/fingerprints) advances exactly as PlanRequest would.
// Drivers without it fall back to PlanRequest during fast-forward.
type FastForwarder interface {
	FastForward(tag uint64, pktBytes uint64, touch func(a uint64, write, full bool)) FFRequest
}

// ClusterSharder is implemented by drivers that can shard their primary
// data structure across the nodes of a cluster. The machine calls
// SetCluster exactly once, before Layout, on every node of a rack: the
// driver then lays out only the shard homed on nodeID and emits
// addr.Remote(node, local) references for data homed elsewhere, which the
// machine routes over the cluster's fabric. Every node's driver must
// compute an identical home assignment (same keys -> same homes) from
// (nodes, nodeID) alone, so the per-node instances agree without
// communicating. Drivers without the interface are rejected when a
// cluster scenario selects them.
type ClusterSharder interface {
	SetCluster(nodes, nodeID int)
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

// StateWarmer is implemented by workloads (drivers or streams) whose steady
// state keeps a known data set cache-resident — route tables, private
// arrays, hot items. WarmLines enumerates those line addresses so a
// warm-started run installs them directly instead of simulating the
// multi-million-cycle coupon-collector fill a cold cache pays before the
// resident set is in place. lineBudget is the installer's capacity hint
// (roughly the shared cache's line count): workloads with unbounded hot
// sets emit their hottest ~lineBudget lines, coldest first, so the hottest
// land most-recently-used. Call only after Layout.
type StateWarmer interface {
	WarmLines(lineBudget uint64, emit func(line uint64, dirty bool))
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
