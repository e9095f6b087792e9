package main

import (
	"fmt"

	"sweeper/internal/experiments"
	"sweeper/internal/machine"
	"sweeper/internal/scenario"
)

// job is one simulation the workload runs: a peak search (depth 0) or one
// closed-loop cell, with the figure row it reproduces.
type job struct {
	table, param, variant string
	cfg                   machine.Config
	depth                 int
}

// name labels the job in reports: its figure row key.
func (j job) name() string { return j.param + " | " + j.variant }

// workloadDef is one benchmark workload: a figure-sized unit of work.
type workloadDef struct {
	name string
	// golden is the committed results/ CSV holding this workload's rows
	// ("" when its figure has none).
	golden string
	// record is the cell whose DRAM stream and exact counters the traced
	// run reads (peak searches record a re-run of the peak probe instead).
	record int
	// jobs builds the job list; every config gets the run's seed.
	jobs func() ([]job, error)
}

var workloadDefs = []workloadDef{
	{name: "kvs-peak", golden: "fig5a.csv", jobs: kvsPeakJobs},
	{name: "l3fwd-deep", golden: "fig7a.csv", record: 1, jobs: l3fwdDeepJobs},
	{name: "colloc", record: 1, jobs: collocJobs},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specJobs expands a shipped figure scenario and keeps the runs whose
// parameter label is param and, when variant is non-empty, whose series is
// variant — the rows the committed CSV holds for that point.
func specJobs(spec, table, param, variant string) ([]job, error) {
	runs, err := scenario.MustSpec(spec).Expand()
	if err != nil {
		return nil, err
	}
	var out []job
	for _, r := range runs {
		name := r.Variant.DisplayName()
		if r.Param != param || (variant != "" && name != variant) {
			continue
		}
		mode, err := r.Variant.NICMode()
		if err != nil {
			return nil, err
		}
		v := experiments.Variant{Name: name, Mode: mode, Ways: r.Variant.Ways, Sweeper: r.Variant.Sweeper}
		out = append(out, job{table: table, param: param, variant: name, cfg: v.Apply(r.Config), depth: r.ClosedLoopDepth})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario %s has no run %q %q", spec, param, variant)
	}
	return out, nil
}

// kvsPeakJobs is the Figure 5 point 1KB items, 1024 RX buffers per core,
// 2-way DDIO with Sweeper: one SLO peak search.
func kvsPeakJobs() ([]job, error) {
	return specJobs("fig5", "fig5a", "1024B/1024 buf", "DDIO 2 Ways + Sweeper")
}

// l3fwdDeepJobs is Figure 7's D=250 row: the deep-queue forwarder under
// seven injection variants.
func l3fwdDeepJobs() ([]job, error) {
	return specJobs("fig7", "fig7a", "D=250", "")
}

// collocDepth is Figure 9's forwarder queue depth (DPDK's default batch).
const collocDepth = 32

// collocJobs are four Figure 9 cells: 4 DDIO ways with and without Sweeper,
// on the disjoint (4,8) partition (panel a) and on the shared LLC (panel b).
func collocJobs() ([]job, error) {
	var out []job
	for _, shared := range []bool{false, true} {
		for _, sweeper := range []bool{false, true} {
			table, param := "fig9a", "(4,8)"
			var cfg machine.Config
			if shared {
				table, param = "fig9b", "4 ways"
				cfg = experiments.CollocationConfig()
			} else {
				cfg = scenario.MustConfig("collocation", map[string]float64{"partition_split": 4})
			}
			v := experiments.DDIOVariant(4, sweeper)
			out = append(out, job{table: table, param: param, variant: v.Name, cfg: v.Apply(cfg), depth: collocDepth})
		}
	}
	return out, nil
}

// seededJobs builds w's jobs with seed stamped on every configuration and
// closed-loop cells normalized the way experiments.RunClosedLoop does.
func seededJobs(w workloadDef, seed int64) ([]job, error) {
	jobs, err := w.jobs()
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].cfg.Seed = seed
		if jobs[i].depth > 0 {
			jobs[i].cfg.ClosedLoopDepth = jobs[i].depth
			jobs[i].cfg.OfferedMrps = 0
		}
	}
	return jobs, nil
}
