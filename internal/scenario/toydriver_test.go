package scenario

import (
	"strings"
	"testing"

	"sweeper/internal/addr"
	"sweeper/internal/machine"
	"sweeper/internal/workload"
)

// toyDriver is a minimal networked application: it reads one line of a
// private table per request. It exists to prove the acceptance criterion
// that a new workload plugs in through the registry plus a scenario spec,
// with no changes to the machine or the experiment harness.
type toyDriver struct {
	base  uint64
	lines uint64
	reqs  uint64
}

func (d *toyDriver) Layout(space *addr.Space) {
	d.base = space.AllocApp(d.lines * 64)
}

func (d *toyDriver) PlanRequest(tag uint64, pktBytes uint64, plan *workload.Plan) {
	d.reqs++
	plan.Ops = append(plan.Ops, workload.Op{Addr: d.base + (tag%d.lines)*64})
	plan.ComputeCycles = 100
	plan.RespBytes = 64
}

func init() {
	workload.Register(workload.Registration{
		Name: "toy",
		New: func(p workload.Params) (workload.Driver, error) {
			return &toyDriver{lines: 4096}, nil
		},
	})
}

// TestToyDriverEndToEnd runs a machine on a registry-only workload defined
// entirely in this test file, configured through a JSON scenario spec.
func TestToyDriverEndToEnd(t *testing.T) {
	spec, err := Load(strings.NewReader(`{
		"name": "toy-study",
		"machine": {
			"workload": "toy",
			"set": {"net_cores": 4, "ring_slots": 256, "offered_mrps": 4}
		},
		"variants": [{"mode": "ddio", "ways": 2, "sweeper": true}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	m, err := machine.New(runs[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run(200_000, 400_000)
	if r.Served == 0 {
		t.Fatal("toy driver served no requests")
	}
	drv, ok := m.Workload().(*toyDriver)
	if !ok {
		t.Fatalf("machine runs %T, want *toyDriver", m.Workload())
	}
	if drv.reqs == 0 {
		t.Error("driver counters never advanced")
	}
	if r.Sweeper.Relinquishes == 0 {
		t.Error("variant requested Sweeper, but no buffers were relinquished")
	}
}
