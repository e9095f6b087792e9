package addr

// Page granularity of hybrid-memory placement decisions: tier ownership is
// decided per 4 KiB page, matching the OS mapping granularity the emulated
// NUMA/CXL placement papers assume.
const (
	PageBytes = uint64(4096)
	PageShift = 12
)

// PageOf returns the page number containing a.
func PageOf(a uint64) uint64 { return a >> PageShift }

// MaxLocalAddr is the largest address a tier split may name. It lies far
// above any simulated space (spaces start at 1 GiB and grow by at most a few
// GiB), so a larger split is a configuration error.
const MaxLocalAddr = uint64(1)<<48 - 1
