package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"jessica2/internal/core"
	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// sweepModes is the paper's profiling grid per application: unprofiled,
// fixed rates with OAL transfer, and the full adaptive profiler.
var sweepModes = []string{"off", "rate1", "rate4", "rate16", "full", "adaptive"}

// sweepCell is one (application, mode) job of the grid.
type sweepCell struct {
	mode string
	spec experiments.Spec
}

func (c sweepCell) key() string { return appKey(c.spec.App) + "." + c.mode }

func appKey(a experiments.App) string {
	return strings.ToLower(strings.ReplaceAll(a.String(), "-", ""))
}

// sweepBench is the paper-sweep workload: SOR, Barnes-Hut and
// Water-Spatial over the profiling grid, submitted as specs to
// experiments.Run through a runner.Pool, with no session involved.
type sweepBench struct {
	cells []sweepCell
}

// sweepWidth is the pool width. One worker keeps the measured work on
// one CPU at a time: on a shared host with few CPUs, a job per CPU makes
// the batch wait for whichever CPU a neighbour slows down, and the
// figures measure the neighbours instead of the simulator.
const sweepWidth = 1

func newSweep(seed uint64, scale experiments.Scale) *sweepBench {
	b := &sweepBench{}
	for _, app := range experiments.Apps {
		for _, mode := range sweepModes {
			spec := experiments.Spec{App: app, Scale: scale, Nodes: 8, Threads: 8, Seed: seed,
				Tracking: gos.TrackingSampled, TransferOALs: true}
			switch mode {
			case "off":
				spec.Tracking, spec.TransferOALs = gos.TrackingOff, false
			case "rate1":
				spec.Rate = 1
			case "rate4":
				spec.Rate = 4
			case "rate16":
				spec.Rate = 16
			case "full":
				spec.Rate = sampling.FullRate
			case "adaptive":
				ad := core.DefaultAdaptiveConfig()
				st := core.DefaultStackConfig()
				spec.Adaptive = &ad
				spec.Stack = &st
				spec.Footprint = &core.FootprintConfig{FootprinterConfig: sticky.DefaultFootprinterConfig()}
			}
			b.cells = append(b.cells, sweepCell{mode: mode, spec: spec})
		}
	}
	return b
}

// setup times the set-up calls every job makes before simulating —
// kernel construction, workload Launch (heap allocation, thread spawn) and
// profiler attach — made here separately for each cell through the same
// public calls, since experiments.Run performs them inside the job.
func (b *sweepBench) setup() (instance, setupSplit, error) {
	var sp setupSplit
	for _, c := range b.cells {
		spec := c.spec
		t0 := time.Now()
		kcfg := gos.DefaultConfig()
		kcfg.Nodes = spec.Nodes
		kcfg.Tracking = spec.Tracking
		kcfg.TransferOALs = spec.TransferOALs
		k := gos.NewKernel(kcfg)
		t1 := time.Now()
		w := experiments.NewWorkload(spec.App, spec.Small, spec.Scale)
		w.Launch(k, workload.Params{Threads: spec.Threads, Seed: spec.Seed})
		t2 := time.Now()
		core.Attach(k, core.Config{Rate: spec.Rate, Stack: spec.Stack, Footprint: spec.Footprint, Adaptive: spec.Adaptive})
		t3 := time.Now()
		sp.newKernel += t1.Sub(t0)
		sp.launch += t2.Sub(t1)
		sp.attach += t3.Sub(t2)
	}
	return b, sp, nil
}

func (b *sweepBench) run(tr *tracer, root int) (*outcome, error) {
	pool := runner.New(sweepWidth)
	out := &outcome{sim: map[string]float64{}, jobs: make([]jobTime, len(b.cells))}
	jobs := make([]func() *experiments.Out, len(b.cells))
	coll := tr.begin("runner.collect", root, 0)
	for i := range b.cells {
		c := b.cells[i]
		jobs[i] = func() *experiments.Out {
			sp := tr.begin("experiments.run", coll, i+1)
			t0 := time.Now()
			o := experiments.Run(c.spec)
			out.jobs[i] = jobTime{key: c.key(), d: time.Since(t0)}
			tr.end(sp)
			return o
		}
	}
	outs := runner.Collect(pool, jobs)
	tr.end(coll)

	fold := tr.begin("tcm.accuracy", root, 0)
	d := newDigest()
	byKey := map[string]*experiments.Out{}
	var problems []string
	for i, c := range b.cells {
		o := outs[i]
		byKey[c.key()] = o
		d.add(c.key()+".exec", o.Exec)
		digestKernel(d, c.key(), o.Stats, o.Net, gos.FailureStats{})
		d.addMap(c.key()+".tcm", o.TCM)
		out.simExec += o.Exec.Seconds()
		addKernel(out.sim, o.Stats, o.Net, gos.FailureStats{})
		if c.spec.Tracking == gos.TrackingOff {
			continue
		}
		if o.TCM == nil {
			problems = append(problems, c.key()+": tracked cell returned no TCM")
		}
		addBuildCost(out.sim, o.TCMCost)
		out.sim["tcm.sim_compute_ms"] += o.TCMTime.Milliseconds()
		if o.TCMCost.DroppedEntries != 0 {
			problems = append(problems, fmt.Sprintf("%s: TCM dropped %d entries", c.key(), o.TCMCost.DroppedEntries))
		}
		for _, rc := range o.Profiler.RateTrace {
			if rc.To != rc.From {
				out.sim["sampling.rate_changes"]++
			}
		}
		out.sim["stack.sim_cpu_ms"] += o.Profiler.StackCPU.Milliseconds()
	}
	logOverhead, accuracy := 0.0, 0.0
	for _, app := range experiments.Apps {
		off, full, ad := byKey[appKey(app)+".off"], byKey[appKey(app)+".full"], byKey[appKey(app)+".adaptive"]
		logOverhead += math.Log(float64(ad.Exec) / float64(off.Exec))
		if full.TCM != nil && ad.TCM != nil {
			accuracy += tcm.Accuracy(tcm.DistanceABS(ad.TCM, full.TCM))
		}
	}
	n := float64(len(experiments.Apps))
	out.sim["sim_overhead_pct"] = 100 * (math.Exp(logOverhead/n) - 1)
	out.sim["tcm_accuracy_pct"] = 100 * accuracy / n
	d.add("sim_overhead_pct", out.sim["sim_overhead_pct"])
	d.add("tcm_accuracy_pct", out.sim["tcm_accuracy_pct"])
	out.sim["runner.jobs"] = float64(len(b.cells))
	out.digest = d.sum()
	out.ops = len(b.cells)
	out.keep = outs
	tr.end(fold)
	return out, joinProblems(problems)
}
