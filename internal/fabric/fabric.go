// Package fabric models the rack interconnect between cluster nodes:
// full-duplex links with finite bandwidth (serialization delay) and
// propagation latency, joined either through a single top-of-rack switch
// ("star") with bounded output-port queues and tail-drop counters, or
// pairwise ("mesh") with a dedicated link per node pair.
//
// Like the DRAM and cache models, the fabric is synchronous busy-until
// state rather than an event source: Send computes a message's delivery
// cycle immediately from per-link free-at cursors and schedules nothing.
// The event engine dispatches in (cycle, seq) order, so the cursors advance
// deterministically and cluster reruns are bit-identical. The model
// follows DRackSim's rack-scale decomposition: per-hop wire latency, a
// switch traversal cost, and bandwidth-driven queuing at the congested
// output port.
package fabric

import (
	"fmt"
	"math"

	"sweeper/internal/obs"
)

// Topology selects how node links are joined.
type Topology uint8

const (
	// TopoStar joins every node to one top-of-rack switch: two hops per
	// message, output-port queuing, tail drops when a port's backlog
	// exceeds the configured depth.
	TopoStar Topology = iota
	// TopoMesh gives every node pair a dedicated link: one hop, no
	// shared switch, no drops.
	TopoMesh
)

// String names the topology for manifests and flags.
func (t Topology) String() string {
	switch t {
	case TopoStar:
		return "star"
	case TopoMesh:
		return "mesh"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// ParseTopology maps a scenario/flag string to a Topology; empty selects
// the star default.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "", "star":
		return TopoStar, nil
	case "mesh":
		return TopoMesh, nil
	default:
		return 0, fmt.Errorf("fabric: unknown topology %q (want star or mesh)", s)
	}
}

// Config sizes the interconnect. The zero value is invalid; DefaultConfig
// returns a 100GbE-class rack fabric.
type Config struct {
	// LinkGBps is each link's per-direction bandwidth in GB/s; it sets
	// the serialization delay of every message.
	LinkGBps float64
	// LinkLatCycles is the per-hop propagation latency in core cycles.
	LinkLatCycles uint64
	// SwitchLatCycles is the ToR traversal time (star topology only).
	SwitchLatCycles uint64
	// QueueDepth bounds a switch output port's backlog, measured in
	// messages of the arriving message's serialization time; a message
	// reaching a fuller port is tail-dropped and counted.
	QueueDepth int
	// RetryCycles is the sender's backoff before retransmitting a
	// dropped message on the reliable path.
	RetryCycles uint64
}

// DefaultConfig returns a 100GbE-class rack fabric at 3.2GHz core cycles:
// 12.5 GB/s links, 200ns of wire per hop, a 30ns cut-through switch,
// 64-message output queues and a 4096-cycle retransmit backoff.
func DefaultConfig() Config {
	return Config{
		LinkGBps:        12.5,
		LinkLatCycles:   640,
		SwitchLatCycles: 96,
		QueueDepth:      64,
		RetryCycles:     4096,
	}
}

// Validate reports configuration errors before assembly.
func (c Config) Validate() error {
	switch {
	case c.LinkGBps <= 0:
		return fmt.Errorf("fabric: LinkGBps must be positive, got %g", c.LinkGBps)
	case c.QueueDepth <= 0:
		return fmt.Errorf("fabric: QueueDepth must be positive, got %d", c.QueueDepth)
	case c.RetryCycles == 0:
		return fmt.Errorf("fabric: RetryCycles must be positive")
	}
	return nil
}

// Stats snapshots cumulative fabric activity.
type Stats struct {
	// Messages and Bytes count successfully delivered traffic; Drops the
	// messages tail-dropped at a switch port; Retries the reliable-path
	// retransmissions those drops forced.
	Messages uint64
	Bytes    uint64
	Drops    uint64
	Retries  uint64
}

// Sub returns the delta s - prev, for measurement windows.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Messages: s.Messages - prev.Messages,
		Bytes:    s.Bytes - prev.Bytes,
		Drops:    s.Drops - prev.Drops,
		Retries:  s.Retries - prev.Retries,
	}
}

// Fabric is the assembled interconnect for one cluster.
type Fabric struct {
	cfg   Config
	topo  Topology
	nodes int
	// cpb converts message bytes to serialization cycles at the core
	// clock: freqHz / (LinkGBps * 1e9).
	cpb float64

	// Busy-until cursors. Star: up[n]/down[n] are node n's uplink and
	// downlink (switch output port) free-at cycles. Mesh: pair[s*nodes+d]
	// is the (s -> d) link's free-at cycle.
	up, down []uint64
	pair     []uint64

	stats Stats
}

// New assembles a fabric joining nodes machines at the given core clock.
func New(nodes int, topo Topology, cfg Config, freqHz float64) *Fabric {
	if nodes <= 0 {
		panic(fmt.Sprintf("fabric: need at least one node, got %d", nodes))
	}
	if freqHz <= 0 {
		panic("fabric: FreqHz must be positive")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fabric{
		cfg:   cfg,
		topo:  topo,
		nodes: nodes,
		cpb:   freqHz / (cfg.LinkGBps * 1e9),
	}
	if topo == TopoMesh {
		f.pair = make([]uint64, nodes*nodes)
	} else {
		f.up = make([]uint64, nodes)
		f.down = make([]uint64, nodes)
	}
	return f
}

// Nodes returns the cluster size the fabric was built for.
func (f *Fabric) Nodes() int { return f.nodes }

// Topology returns the fabric's wiring.
func (f *Fabric) Topology() Topology { return f.topo }

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// ser converts a message size to its serialization time on one link.
func (f *Fabric) ser(bytes uint64) uint64 {
	s := uint64(math.Ceil(float64(bytes) * f.cpb))
	if s == 0 {
		s = 1
	}
	return s
}

// Send transmits a bytes-long message from src to dst starting at cycle
// now, returning the delivery cycle. Star messages serialize onto the
// source uplink, cross the wire and the switch, and queue at the
// destination's output port; a port whose backlog already exceeds
// QueueDepth messages' worth of serialization tail-drops the message and
// Send reports ok=false (the uplink time is still spent — the packet died
// at the switch, not at the sender). Mesh messages occupy the dedicated
// pair link and are never dropped. Self-sends are free: node-local traffic
// never touches the fabric.
func (f *Fabric) Send(now uint64, src, dst int, bytes uint64) (deliver uint64, ok bool) {
	if src == dst {
		return now, true
	}
	ser := f.ser(bytes)
	if f.topo == TopoMesh {
		l := &f.pair[src*f.nodes+dst]
		start := now
		if *l > start {
			start = *l
		}
		*l = start + ser
		f.stats.Messages++
		f.stats.Bytes += bytes
		return start + ser + f.cfg.LinkLatCycles, true
	}
	upStart := now
	if f.up[src] > upStart {
		upStart = f.up[src]
	}
	f.up[src] = upStart + ser
	atPort := upStart + ser + f.cfg.LinkLatCycles + f.cfg.SwitchLatCycles
	if f.down[dst] > atPort && f.down[dst]-atPort > uint64(f.cfg.QueueDepth)*ser {
		f.stats.Drops++
		return 0, false
	}
	start := atPort
	if f.down[dst] > start {
		start = f.down[dst]
	}
	f.down[dst] = start + ser
	f.stats.Messages++
	f.stats.Bytes += bytes
	return start + ser + f.cfg.LinkLatCycles, true
}

// SendReliable delivers bytes from src to dst, backing off RetryCycles and
// retransmitting whenever the switch drops the message — the remote-memory
// protocol is lossless end-to-end. Returns the delivery cycle. Each retry
// re-serializes on the uplink; the backoff guarantees progress because the
// congested port keeps draining while the sender waits.
func (f *Fabric) SendReliable(now uint64, src, dst int, bytes uint64) uint64 {
	for {
		if t, ok := f.Send(now, src, dst, bytes); ok {
			return t
		}
		f.stats.Retries++
		now += f.cfg.RetryCycles
	}
}

// Stats returns cumulative fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// RegisterMetrics exposes fabric activity to the observability registry.
func (f *Fabric) RegisterMetrics(r *obs.Registry) {
	r.Counter("fabric.messages", func() uint64 { return f.stats.Messages })
	r.Counter("fabric.tx_bytes", func() uint64 { return f.stats.Bytes })
	r.Counter("fabric.drops", func() uint64 { return f.stats.Drops })
	r.Counter("fabric.retries", func() uint64 { return f.stats.Retries })
	r.Gauge("fabric.max_port_backlog", func(now uint64) float64 {
		var max uint64
		for _, free := range f.down {
			if free > now && free-now > max {
				max = free - now
			}
		}
		for _, free := range f.pair {
			if free > now && free-now > max {
				max = free - now
			}
		}
		return float64(max)
	})
}
