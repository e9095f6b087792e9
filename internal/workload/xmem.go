package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// The memory-intensive collocated tenant of §VI-E: each instance streams
// over a private 2MB array, exceeding the aggregate private L1+L2 capacity,
// with xmemComputeCycles of fixed work between access batches.
// xmemInstrPerAccess approximates X-Mem's instruction mix (instructions
// retired per memory access) so an IPC proxy can be reported.
const (
	xmemArrayBytes     = 2 << 20
	xmemComputeCycles  = 4
	xmemInstrPerAccess = 8
)

// XMem models one instance: a stream of dependent random line accesses over
// a private array. Each collocated core owns one instance.
type XMem struct {
	base  uint64
	state uint64
}

// NewXMem builds one instance; call Layout to allocate its private array and
// seed the stream (the seed differentiates collocated instances).
func NewXMem() *XMem { return &XMem{} }

// Layout allocates the private array in the address space and (re)starts
// the access sequence from seed. Re-laying-out against a freshly Reset space
// reproduces a fresh instance exactly.
func (x *XMem) Layout(space *addr.Space, seed uint64) {
	x.base = space.AllocApp(xmemArrayBytes)
	x.state = splitmix64(seed | 1)
}

// Name labels the instance.
func (x *XMem) Name() string { return fmt.Sprintf("xmem-%dMB", xmemArrayBytes>>20) }

// ComputeCycles returns the fixed gap between access batches.
func (x *XMem) ComputeCycles() uint64 { return xmemComputeCycles }

// InstrPerAccess returns the IPC-proxy conversion factor.
func (x *XMem) InstrPerAccess() uint64 { return xmemInstrPerAccess }

// Next returns the next dependent random line address in the stream.
func (x *XMem) Next() uint64 {
	x.state = splitmix64(x.state)
	return x.base + (x.state%(xmemArrayBytes/addr.LineBytes))*addr.LineBytes
}
