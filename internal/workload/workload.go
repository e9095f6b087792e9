// Package workload implements the paper's three applications at the level
// of detail the simulation needs — their memory access signatures — plus
// functional semantics where they are cheap enough to test (the KVS really
// stores and returns value fingerprints).
//
//   - MICA-like key-value store: 1M-bucket hash index + 256MB circular log,
//     2.4M keys, zipf(0.99) popularity, 5/95 GET/SET (write-heavy), as in
//     the paper's Appendix.
//   - L3 forwarder network function: route-table lookup + packet copy, with
//     either a 16k-rule table (barely fits in L2; §IV-B) or an L1-resident
//     table (§VI-E).
//   - X-Mem: a memory-intensive collocated tenant performing dependent
//     random accesses over a private 2MB array.
package workload

// Op is one application-data access at line granularity.
type Op struct {
	Addr  uint64
	Write bool
	// FullLine marks a write that overwrites the whole line (a streaming
	// store): the hardware allocates it dirty without fetching the old
	// contents.
	FullLine bool
}

// Plan is the per-request access program a core executes between reading
// the RX buffer and writing the response: application data operations plus
// fixed compute cycles, and the response size that determines TX traffic.
type Plan struct {
	Ops           []Op
	ComputeCycles uint64
	RespBytes     uint64
	// ReadFullPacket reports whether the application reads the entire
	// packet payload (true for KVS SETs and copying NFs) or only the
	// header line.
	ReadFullPacket bool
}

func (p *Plan) reset() {
	p.Ops = p.Ops[:0]
	p.ComputeCycles = 0
	p.RespBytes = 0
	p.ReadFullPacket = true
}

func (p *Plan) read(a uint64)  { p.Ops = append(p.Ops, Op{Addr: a}) }
func (p *Plan) write(a uint64) { p.Ops = append(p.Ops, Op{Addr: a, Write: true}) }
func (p *Plan) writeFull(a uint64) {
	p.Ops = append(p.Ops, Op{Addr: a, Write: true, FullLine: true})
}

// splitmix64 is a fast, high-quality mixer used to derive independent
// pseudo-random streams from a packet tag deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a uint64 to [0,1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
