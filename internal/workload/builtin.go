package workload

// Canonical registry names of the paper's workloads. Machine configurations
// and scenario specs refer to workloads by these strings; new workloads pick
// a fresh name and call Register from their own package.
const (
	// NameKVS is the MICA-like key-value store (§IV-A).
	NameKVS = "kvs"
	// NameL3Fwd is the 16k-rule L3 forwarder (§IV-B).
	NameL3Fwd = "l3fwd"
	// NameL3FwdL1 is the L1-resident-table forwarder (§VI-E).
	NameL3FwdL1 = "l3fwd-l1"
)

func init() {
	// A KVS item is one packet (the paper pairs item size with packet
	// size), so the TX slots that carry GET responses back are packet-sized
	// like every workload's.
	Register(Registration{
		Name: NameKVS,
		New: func(p Params) (Driver, error) {
			return NewKVS(p.PacketBytes), nil
		},
		Validate: func(p Params) error {
			return validateItemSize(p.PacketBytes)
		},
	})
	Register(Registration{
		Name: NameL3Fwd,
		New: func(p Params) (Driver, error) {
			return NewL3Fwd(l3fwdRules), nil
		},
	})
	Register(Registration{
		Name: NameL3FwdL1,
		New: func(p Params) (Driver, error) {
			return NewL3Fwd(l3fwdL1Rules), nil
		},
	})
}
