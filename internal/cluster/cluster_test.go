package cluster

import (
	"reflect"
	"testing"

	"sweeper/internal/machine"
)

// quickNode returns a fast-to-simulate per-node configuration, matching
// the machine package's quick test configuration.
func quickNode() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.OfferedMrps = 8
	return cfg
}

func quickCluster(nodes int) Config {
	return Config{Node: quickNode(), Nodes: nodes}
}

// TestConfigValidate is the cluster-knob validation table: node counts,
// policy names resolved against the registry, fabric sizing and the
// sampling exclusion.
func TestConfigValidate(t *testing.T) {
	cases := map[string]func(*Config){
		"zero nodes":       func(c *Config) { c.Nodes = 0 },
		"negative nodes":   func(c *Config) { c.Nodes = -3 },
		"unknown policy":   func(c *Config) { c.LBPolicy = "coin-flip" },
		"unknown topology": func(c *Config) { c.Topology = "torus" },
		"bad fabric bw":    func(c *Config) { c.Fabric.LinkGBps = -1 },
		"sampling":         func(c *Config) { c.Node.Sampling.Mode = "smarts" },
		"bad node":         func(c *Config) { c.Node.NetCores = 0 },
	}
	for name, mutate := range cases {
		cfg := quickCluster(4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := quickCluster(4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, pol := range PolicyNames() {
		cfg := quickCluster(2)
		cfg.LBPolicy = pol
		if err := cfg.Validate(); err != nil {
			t.Errorf("registered policy %q rejected: %v", pol, err)
		}
	}
}

// TestOneNodeClusterMatchesStandalone anchors the whole cluster layer to
// the committed single-machine results: a one-node rack must produce a
// node window bit-identical to the standalone machine built from the same
// template — same rng draws, same event sequence, same counters and CDFs.
func TestOneNodeClusterMatchesStandalone(t *testing.T) {
	cfg := quickNode()
	want := machine.MustNew(cfg).Run(400_000, 300_000)

	cl := MustNew(quickCluster(1))
	r := cl.Run(400_000, 300_000)
	if len(r.Nodes) != 1 {
		t.Fatalf("one-node cluster reported %d node windows", len(r.Nodes))
	}
	if !reflect.DeepEqual(r.Nodes[0], want) {
		t.Fatalf("one-node cluster diverged from standalone machine:\n  cluster:    %+v\n  standalone: %+v", r.Nodes[0], want)
	}
	if r.RemoteReads != 0 || r.Fabric.Messages != 0 {
		t.Fatalf("one-node cluster touched the fabric: %d remote reads, %+v", r.RemoteReads, r.Fabric)
	}
	if r.Served != want.Served || r.ThroughputMrps != want.ThroughputMrps {
		t.Fatalf("aggregate (%d, %g) disagrees with the single node (%d, %g)",
			r.Served, r.ThroughputMrps, want.Served, want.ThroughputMrps)
	}
}

// TestClusterDeterministic locks reproducibility at rack scale: two fresh
// four-node clusters built from one config must produce bit-identical
// Results.
func TestClusterDeterministic(t *testing.T) {
	cfg := quickCluster(4)
	want := MustNew(cfg).Run(300_000, 200_000)
	if want.Served == 0 {
		t.Fatal("cluster served nothing")
	}
	if got := MustNew(cfg).Run(300_000, 200_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun diverged:\n  got:  %+v\n  want: %+v", got, want)
	}
}

// TestClusterRemoteMemoryPath checks a multi-node KVS rack actually
// exercises the fabric: sharded logs force remote GETs, which show up in
// the remote-read counter, the fabric's message counters and the manifest
// metrics.
func TestClusterRemoteMemoryPath(t *testing.T) {
	cl := MustNew(quickCluster(4))
	r := cl.Run(300_000, 200_000)
	if r.Served == 0 {
		t.Fatal("rack served nothing")
	}
	if r.RemoteReads == 0 {
		t.Fatal("sharded KVS run crossed the fabric zero times")
	}
	if r.Fabric.Messages == 0 || r.Fabric.Bytes == 0 {
		t.Fatalf("fabric stats empty despite %d remote reads: %+v", r.RemoteReads, r.Fabric)
	}
	// Request and response legs: at least two messages per remote read.
	if r.Fabric.Messages < 2*r.RemoteReads {
		t.Fatalf("%d fabric messages for %d remote reads, want >= 2x", r.Fabric.Messages, r.RemoteReads)
	}

	man := cl.BuildManifest("test", r)
	for _, key := range []string{"node0.cpu.served", "node3.cpu.served", "fabric.messages", "cluster.remote_reads", "lb.node0.offered"} {
		if _, ok := man.Metrics[key]; !ok {
			t.Errorf("manifest missing %q", key)
		}
	}
	if man.Metrics["cluster.remote_reads"] == 0 {
		t.Error("manifest remote-read counter is zero")
	}
	var served float64
	for _, key := range []string{"node0.cpu.served", "node1.cpu.served", "node2.cpu.served", "node3.cpu.served"} {
		served += man.Metrics[key]
	}
	if served == 0 {
		t.Error("per-node served metrics all zero")
	}
}

// TestPolicies pins each registered policy's selection behaviour.
func TestPolicies(t *testing.T) {
	flat := func(int) int { return 0 }

	rr, _ := NewPolicy("round-robin")
	for i := 0; i < 8; i++ {
		if got := rr.Pick(uint64(i*997), 4, flat); got != i%4 {
			t.Fatalf("round-robin pick %d = %d, want %d", i, got, i%4)
		}
	}

	fh, _ := NewPolicy("flow-hash")
	seen := map[int]bool{}
	for tag := uint64(0); tag < 256; tag++ {
		n := fh.Pick(tag, 4, flat)
		if n < 0 || n >= 4 {
			t.Fatalf("flow-hash out of range: %d", n)
		}
		if n != fh.Pick(tag, 4, flat) {
			t.Fatal("flow-hash not deterministic per tag")
		}
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Fatalf("flow-hash covered %d of 4 nodes over 256 tags", len(seen))
	}

	ll, _ := NewPolicy("least-loaded")
	loads := []int{5, 2, 9, 2}
	if got := ll.Pick(1, 4, func(n int) int { return loads[n] }); got != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (lowest id among ties)", got)
	}

	if _, err := NewPolicy(""); err != nil {
		t.Fatalf("empty policy name rejected: %v", err)
	}
	if _, err := NewPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestLBPoliciesRunAndBalance runs a short rack under each policy and
// checks every node receives traffic.
func TestLBPoliciesRunAndBalance(t *testing.T) {
	for _, pol := range PolicyNames() {
		cfg := quickCluster(2)
		cfg.LBPolicy = pol
		cl := MustNew(cfg)
		r := cl.Run(200_000, 150_000)
		for i, nr := range r.Nodes {
			if nr.Offered == 0 {
				t.Errorf("%s: node %d offered nothing", pol, i)
			}
		}
		if r.Served == 0 {
			t.Errorf("%s: rack served nothing", pol)
		}
	}
}

// TestClusterRunsOnce locks the one-shot contract at rack scale.
func TestClusterRunsOnce(t *testing.T) {
	cl := MustNew(quickCluster(1))
	cl.Run(100_000, 50_000)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	cl.Run(100_000, 50_000)
}
