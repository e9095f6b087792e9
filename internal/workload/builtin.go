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
	Register(Registration{
		Name: NameKVS,
		New: func(p Params) (Driver, error) {
			return NewKVS(DefaultKVSConfig(p.ItemBytes)), nil
		},
		// GET responses carry a whole item back.
		RespSlotBytes: func(p Params) uint64 { return p.ItemBytes },
		Validate: func(p Params) error {
			return DefaultKVSConfig(p.ItemBytes).Validate()
		},
	})
	Register(Registration{
		Name: NameL3Fwd,
		New: func(p Params) (Driver, error) {
			return NewL3Fwd(DefaultL3FwdConfig()), nil
		},
	})
	Register(Registration{
		Name: NameL3FwdL1,
		New: func(p Params) (Driver, error) {
			return NewL3Fwd(L1ResidentL3FwdConfig()), nil
		},
	})
}
