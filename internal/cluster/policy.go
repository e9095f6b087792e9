package cluster

import (
	"fmt"
	"sort"
)

// Policy picks the destination node for each request the load-balancer
// front end injects. Implementations must be deterministic functions of
// their own state and the arguments — no randomness — so cluster runs are
// reproducible and a one-node cluster reproduces a standalone machine
// exactly.
type Policy interface {
	// Pick returns the node in [0, nodes) to receive the request with
	// the given tag. load reports a node's instantaneous NIC queue
	// depth, for load-aware policies.
	Pick(tag uint64, nodes int, load func(node int) int) int
}

// DefaultPolicy is the policy an empty name selects: hashing the request
// tag keeps each flow on one node without tracking any state.
const DefaultPolicy = "flow-hash"

// policies is the registry scenario knobs and flags resolve against; new
// policies plug in here without touching the front end.
var policies = map[string]func() Policy{
	"round-robin":  func() Policy { return &roundRobin{} },
	"flow-hash":    func() Policy { return flowHash{} },
	"least-loaded": func() Policy { return leastLoaded{} },
}

// NewPolicy builds the named policy; the empty name selects DefaultPolicy.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown lb_policy %q (have %v)", name, PolicyNames())
	}
	return mk(), nil
}

// PolicyNames lists the registered policies, sorted, for error messages
// and validation.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// roundRobin cycles through the nodes in order, ignoring tags and load.
type roundRobin struct{ next uint64 }

func (p *roundRobin) Pick(_ uint64, nodes int, _ func(int) int) int {
	n := int(p.next % uint64(nodes))
	p.next++
	return n
}

// flowHash mixes the request tag so every flow consistently lands on one
// node with a near-uniform spread.
type flowHash struct{}

func (flowHash) Pick(tag uint64, nodes int, _ func(int) int) int {
	return int(mix64(tag) % uint64(nodes))
}

// leastLoaded sends each request to the node with the fewest queued
// packets, lowest id on ties.
type leastLoaded struct{}

func (leastLoaded) Pick(_ uint64, nodes int, load func(int) int) int {
	best, bestLoad := 0, load(0)
	for n := 1; n < nodes; n++ {
		if l := load(n); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer, the same mixing the workloads use for
// tag-deterministic decisions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
