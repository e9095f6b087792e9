package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// XMemConfig sizes the memory-intensive collocated tenant of §VI-E.
type XMemConfig struct {
	// ArrayBytes is the private working set per instance; the paper uses
	// 2MB, exceeding the aggregate private L1+L2 capacity.
	ArrayBytes uint64
	// ComputeCycles is the fixed work between dependent accesses.
	ComputeCycles uint64
	// AccessesPerInstr approximates X-Mem's instruction mix so an IPC
	// proxy can be reported: instructions retired per memory access.
	InstrPerAccess uint64
}

// DefaultXMemConfig returns the paper's 2MB random-access configuration.
func DefaultXMemConfig() XMemConfig {
	return XMemConfig{ArrayBytes: 2 << 20, ComputeCycles: 4, InstrPerAccess: 8}
}

// XMem models one instance: a stream of dependent random line accesses over
// a private array. Each collocated core owns one instance.
type XMem struct {
	cfg   XMemConfig
	base  uint64
	lines uint64
	state uint64
}

// NewXMem builds one instance; call Layout to allocate its private array and
// seed the stream (the seed differentiates collocated instances).
func NewXMem(cfg XMemConfig) *XMem {
	if cfg.ArrayBytes < addr.LineBytes {
		panic("workload: xmem array must hold at least one line")
	}
	return &XMem{
		cfg:   cfg,
		lines: cfg.ArrayBytes / addr.LineBytes,
	}
}

// Layout allocates the private array in the address space and (re)starts
// the access sequence from seed. Re-laying-out against a freshly Reset space
// reproduces a fresh instance exactly.
func (x *XMem) Layout(space *addr.Space, seed uint64) {
	x.base = space.AllocApp(x.cfg.ArrayBytes)
	x.state = splitmix64(seed | 1)
}

// Name labels the instance.
func (x *XMem) Name() string { return fmt.Sprintf("xmem-%dMB", x.cfg.ArrayBytes>>20) }

// Config returns the instance's configuration.
func (x *XMem) Config() XMemConfig { return x.cfg }

// ComputeCycles returns the fixed gap between access batches.
func (x *XMem) ComputeCycles() uint64 { return x.cfg.ComputeCycles }

// InstrPerAccess returns the IPC-proxy conversion factor.
func (x *XMem) InstrPerAccess() uint64 { return x.cfg.InstrPerAccess }

// Next returns the next dependent random line address in the stream.
func (x *XMem) Next() uint64 {
	x.state = splitmix64(x.state)
	return x.base + (x.state%x.lines)*addr.LineBytes
}
