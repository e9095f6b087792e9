// Package cluster scales the simulator from one machine to a rack: N
// machine.Machine nodes share one event engine, a fabric models the
// interconnect between them, a load-balancer front end sprays the open-loop
// arrival process across the nodes, and cluster-aware workloads shard their
// primary structure so some application reads cross the fabric into a remote
// node's memory.
//
// Determinism carries over unchanged from the single machine: the shared
// engine dispatches in (cycle, seq) order, so synchronous cross-node state —
// the fabric's link cursors, a remote node's cache hierarchy — is touched in
// one global order and reruns are bit-identical. A one-node cluster
// reproduces the standalone machine's Results exactly (locked by test),
// which anchors every cluster result to the committed single-node figures.
package cluster

import (
	"fmt"

	"sweeper/internal/addr"
	"sweeper/internal/fabric"
	"sweeper/internal/machine"
	"sweeper/internal/obs"
	"sweeper/internal/sim"
)

// Remote-memory message sizes: a read request carries a header line; the
// response carries the header plus the requested line.
const (
	remoteReqBytes  = 64
	remoteRespBytes = 64 + addr.LineBytes
)

// Cluster is an assembled rack. Like a Machine, a Cluster runs exactly
// once; build a fresh one per configuration probe.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine
	fab   *fabric.Fabric
	nodes []*machine.Machine
	fe    *frontend // nil under closed-loop traffic

	remoteReads uint64

	metrics                 *obs.Registry
	lastWarmup, lastMeasure uint64
}

// New assembles a cluster: shared engine, fabric, front end, then the nodes
// in id order so their identical per-node layouts allocate the same local
// addresses everywhere.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, _ := fabric.ParseTopology(cfg.Topology)
	pol, _ := NewPolicy(cfg.LBPolicy)

	eng := sim.NewEngine()

	cl := &Cluster{
		cfg: cfg,
		eng: eng,
		fab: fabric.New(cfg.Nodes, topo, cfg.fabricConfig(), cfg.Node.FreqHz),
	}
	openLoop := cfg.Node.ClosedLoopDepth <= 0
	if openLoop {
		fe, err := newFrontend(eng, &cfg, pol)
		if err != nil {
			return nil, err
		}
		cl.fe = fe
	}

	cl.nodes = make([]*machine.Machine, cfg.Nodes)
	for i := range cl.nodes {
		ncfg := cfg.Node
		ncfg.NodeID = i
		ncfg.ClusterNodes = cfg.Nodes
		if i > 0 {
			// Distinct decorrelated seeds per node; node 0 keeps the
			// template's, anchoring the one-node identity with a
			// standalone machine.
			ncfg.Seed = cfg.Node.Seed + int64(i)*7919
		}
		var opts machine.NodeOptions
		if openLoop {
			slot := &cl.fe.offered[i]
			opts = machine.NodeOptions{
				ExternalTraffic: true,
				Offered:         func() uint64 { return *slot },
			}
		}
		m, err := machine.NewNode(ncfg, eng, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		cl.nodes[i] = m
	}
	if cl.fe != nil {
		cl.fe.wire(cl.nodes)
	}
	for i, m := range cl.nodes {
		self := i
		m.SetRemoteAccess(func(now uint64, _ int, a uint64, write bool) uint64 {
			return cl.remoteAccess(self, now, a, write)
		})
	}
	return cl, nil
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *Cluster {
	cl, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// remoteAccess serves one application access to memory homed on another
// node: a request message to the home, the read (or dirtying write) through
// the home's cache hierarchy into its DRAM, and the response line back.
// Both legs ride the reliable fabric path — the remote-memory protocol is
// lossless, paying retransmit backoff under congestion.
func (cl *Cluster) remoteAccess(self int, now uint64, a uint64, write bool) uint64 {
	home, local := addr.RemoteParts(a)
	if home == self || home >= len(cl.nodes) {
		panic(fmt.Sprintf("cluster: node %d asked for remote address %#x homed on node %d", self, a, home))
	}
	cl.remoteReads++
	t := cl.fab.SendReliable(now, self, home, remoteReqBytes)
	t = cl.nodes[home].Hierarchy().RemoteRead(t, local, write)
	return cl.fab.SendReliable(t, home, self, remoteRespBytes)
}

// Results aggregates one measurement window across the rack. Per-node
// windows are kept whole in Nodes; the top-level fields are the rack-wide
// sums (throughput, bandwidth, drops) and maxima (tail latency) the
// experiment tables plot.
type Results struct {
	// Nodes holds each node's own window, in node-id order.
	Nodes []machine.Results
	// MeasuredCycles is the shared window length.
	MeasuredCycles uint64
	// Served/Offered/Dropped sum the rack's request counters;
	// ThroughputMrps and MemBWGBps sum the per-node rates.
	Served         uint64
	Offered        uint64
	Dropped        uint64
	ThroughputMrps float64
	MemBWGBps      float64
	DropRate       float64
	// ReqLatP99Max is the worst per-node p99 request latency — the
	// rack's tail is its slowest node's tail.
	ReqLatP99Max uint64
	// RemoteReads counts fabric-crossing application accesses in the
	// window; Fabric the interconnect's message/byte/drop/retry deltas.
	RemoteReads uint64
	Fabric      fabric.Stats
}

func (r Results) String() string {
	return fmt.Sprintf("%d nodes: %.2f Mrps, %.1f GB/s, drop %.4f, worst p99 %dcyc, %d remote reads",
		len(r.Nodes), r.ThroughputMrps, r.MemBWGBps, r.DropRate, r.ReqLatP99Max, r.RemoteReads)
}

// Run executes the rack for warmup cycles, then measures for measure
// cycles. All nodes start, warm up and measure on the shared clock; the
// front end starts in node 0's generator slot.
func (cl *Cluster) Run(warmup, measure uint64) Results {
	cl.lastWarmup, cl.lastMeasure = warmup, measure
	var startGen func()
	if cl.fe != nil {
		startGen = cl.fe.Start
	}
	for i, m := range cl.nodes {
		if i == 0 {
			m.StartNode(warmup, measure, startGen)
		} else {
			m.StartNode(warmup, measure, nil)
		}
	}
	cl.eng.RunUntil(warmup)
	for _, m := range cl.nodes {
		m.BeginWindow()
	}
	fabSnap := cl.fab.Stats()
	remoteSnap := cl.remoteReads

	cl.eng.RunUntil(warmup + measure)
	r := Results{
		Nodes:          make([]machine.Results, 0, len(cl.nodes)),
		MeasuredCycles: measure,
		RemoteReads:    cl.remoteReads - remoteSnap,
		Fabric:         cl.fab.Stats().Sub(fabSnap),
	}
	for _, m := range cl.nodes {
		nr := m.EndWindow(measure)
		r.Nodes = append(r.Nodes, nr)
		r.Served += nr.Served
		r.Offered += nr.Offered
		r.Dropped += nr.Dropped
		r.ThroughputMrps += nr.ThroughputMrps
		r.MemBWGBps += nr.MemBWGBps
		if nr.ReqLatP99 > r.ReqLatP99Max {
			r.ReqLatP99Max = nr.ReqLatP99
		}
	}
	if r.Offered > 0 {
		r.DropRate = float64(r.Dropped) / float64(r.Offered)
	}
	return r
}

// Accessors for tests and the experiment harness.

// Config returns the cluster's configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Engine returns the shared event engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Fabric returns the interconnect model.
func (cl *Cluster) Fabric() *fabric.Fabric { return cl.fab }

// Node returns one node's machine.
func (cl *Cluster) Node(i int) *machine.Machine { return cl.nodes[i] }

// NumNodes returns the rack size.
func (cl *Cluster) NumNodes() int { return len(cl.nodes) }

// RemoteReads returns the cumulative fabric-crossing access count.
func (cl *Cluster) RemoteReads() uint64 { return cl.remoteReads }

// Metrics returns the rack's observability registry: every node's metrics
// under a "nodeN." prefix, the fabric's counters, the balancer's per-node
// spray and the remote-memory counter, all on one shared registry so a
// single sampler or manifest covers the rack.
func (cl *Cluster) Metrics() *obs.Registry {
	if cl.metrics == nil {
		r := obs.NewRegistry()
		for i, m := range cl.nodes {
			m.RegisterMetrics(r.Sub(fmt.Sprintf("node%d.", i)))
		}
		cl.fab.RegisterMetrics(r)
		r.Counter("cluster.remote_reads", func() uint64 { return cl.remoteReads })
		if cl.fe != nil {
			cl.fe.RegisterMetrics(r)
		}
		cl.metrics = r
	}
	return cl.metrics
}

// BuildManifest assembles the machine-readable record of a completed rack
// run, mirroring machine.BuildManifest: configuration, aggregated results,
// and the closing value of every per-node, fabric and balancer metric.
func (cl *Cluster) BuildManifest(label string, r Results) *obs.Manifest {
	reg := cl.Metrics()
	return &obs.Manifest{
		Label:        label,
		WarmupCycles: cl.lastWarmup,
		MeasureCyc:   cl.lastMeasure,
		Config:       cl.cfg,
		Results:      r,
		Metrics:      reg.Final(cl.eng.Now()),
		Histograms:   reg.HistogramSummaries(),
	}
}
