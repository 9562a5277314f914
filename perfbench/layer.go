package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"jessica2/internal/experiments"
)

// perLayerMetrics are the metrics of a --trace 1 run. Every workload
// reports every one; a layer the workload does not reach reads 0.
var perLayerMetrics = append([]metricDef{
	{"gos.checks", "count"},
	{"gos.host_ns_per_check", "ns"},
	{"gos.faults", "count"},
	{"gos.fault_kb", "KB"},
	{"gos.intervals", "count"},
	{"gos.oal_entries", "count"},
	{"gos.oal_wire_kb", "KB"},
	{"gos.resampled_objs", "count"},
	{"gos.lock_acquires", "count"},
	{"gos.barriers", "count"},
	{"gos.diff_messages", "count"},
	{"gos.home_migrations", "count"},
	{"gos.heartbeats_sent", "count"},
	{"gos.lease_expiries", "count"},
	{"gos.evacuations", "count"},
	{"gos.lock_failovers", "count"},
	{"gos.lock_reclaims", "count"},
	{"net.messages", "count"},
	{"net.kb", "KB"},
	{"net.oal_kb", "KB"},
	{"net.dropped", "count"},
	{"tcm.entries", "count"},
	{"tcm.objects", "count"},
	{"tcm.pair_adds", "count"},
	{"tcm.dropped_entries", "count"},
	{"tcm.sim_compute_ms", "sim_ms"},
	{"tcm.final_build_ms", "ms"},
	{"sampling.rate_changes", "count"},
	{"stack.sim_cpu_ms", "sim_ms"},
	{"session.epochs", "count"},
	{"session.step_s", "s"},
	{"session.advance_s", "s"},
	{"policy.observe_s", "s"},
	{"session.apply_s", "s"},
	{"session.actions.migrate", "count"},
	{"session.actions.rehome", "count"},
	{"session.actions.rate", "count"},
	{"step_ms_p50", "ms"},
	{"step_ms_p99", "ms"},
	{"step_samples", "count"},
	{"setup.session_new_ms", "ms"},
	{"setup.launch_ms", "ms"},
	{"setup.attach_ms", "ms"},
	{"serve.arrived", "count"},
	{"serve.completed", "count"},
	{"serve.in_slo", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.failed_fast", "count"},
	{"serve.retried", "count"},
	{"serve.hedged", "count"},
	{"serve.hedge_wins", "count"},
	{"serve.wasted", "count"},
	{"serve.breaker_opens", "count"},
	{"serve.attempt_yield", "ratio"},
	{"serve.host_us_per_req.q1", "us"},
	{"serve.host_us_per_req.q2", "us"},
	{"serve.host_us_per_req.q3", "us"},
	{"serve.host_us_per_req.q4", "us"},
	{"sim_overhead_pct", "%"},
	{"tcm_accuracy_pct", "%"},
	{"sim_p99_ms", "sim_ms"},
	{"slo_goodput_rps", "1/sim_s"},
	{"sim_fail_pct", "%"},
	{"runner.jobs", "count"},
	{"runner.busy_s", "s"},
	{"runner.utilization", "ratio"},
	{"runner.job_s_max", "s"},
}, append(jobMetrics(), []metricDef{
	{"run_wall_s", "s"},
	{"sim.host_s_per_sim_s", "s/sim_s"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cpu_s", "s"},
	{"trace.run_s", "s"},
	{"trace.overhead_s", "s"},
}...)...)

// jobMetrics names one host-time metric per paper-sweep cell.
func jobMetrics() []metricDef {
	var defs []metricDef
	for _, app := range experiments.Apps {
		for _, mode := range sweepModes {
			defs = append(defs, metricDef{"runner.job_s." + appKey(app) + "." + mode, "s"})
		}
	}
	return defs
}

// layerMetrics derives the per-layer metrics: counters and simulated
// outcomes from the (identical) repetitions, host times as medians over
// the untraced repetitions, and the policy split and tracing overhead
// from the traced ones.
func layerMetrics(m *measurement, log io.Writer) map[string]float64 {
	vals := map[string]float64{}
	if len(m.reps) == 0 {
		return vals
	}
	for k, v := range m.reps[0].out.sim {
		vals[k] = v
	}
	un := untracedReps(m)
	var traced []rep
	for _, r := range m.reps {
		if r.traced {
			traced = append(traced, r)
		}
	}
	perRep := func(f func(rep) float64) float64 { return median(mapReps(un, f)) }

	runS := perRep(func(r rep) float64 { return r.cpu.Seconds() })
	wallS := perRep(func(r rep) float64 { return r.run.Seconds() })
	vals["run_wall_s"] = wallS
	if c := vals["gos.checks"]; c > 0 {
		vals["gos.host_ns_per_check"] = runS * 1e9 / c
	}
	if se := simExec(m); se > 0 {
		vals["sim.host_s_per_sim_s"] = runS / se
	}
	vals["go.gc_cycles"] = perRep(func(r rep) float64 { return float64(r.gcCycles) })
	vals["go.gc_pause_ms"] = perRep(func(r rep) float64 { return ms(r.gcPause) })
	vals["go.gc_cpu_s"] = perRep(func(r rep) float64 { return r.gcCPU })
	vals["tcm.final_build_ms"] = perRep(func(r rep) float64 { return ms(r.out.finalBuild) })
	vals["setup.session_new_ms"] = 1e3 * median(mapSetups(m.setups, func(s setupSplit) time.Duration { return s.newKernel }))
	vals["setup.launch_ms"] = 1e3 * median(mapSetups(m.setups, func(s setupSplit) time.Duration { return s.launch }))
	vals["setup.attach_ms"] = 1e3 * median(mapSetups(m.setups, func(s setupSplit) time.Duration { return s.attach }))

	// Session steps, pooled over the untraced repetitions.
	var steps []time.Duration
	for _, r := range un {
		steps = append(steps, r.out.steps...)
	}
	if len(steps) > 0 {
		slices.Sort(steps)
		p99 := nearestRank(steps, 0.99)
		beyond := len(steps) - sort.Search(len(steps), func(i int) bool { return steps[i] > p99 })
		vals["step_ms_p50"] = ms(nearestRank(steps, 0.5))
		vals["step_ms_p99"] = ms(p99)
		vals["step_samples"] = float64(len(steps))
		vals["session.step_s"] = perRep(func(r rep) float64 { return sumDur(r.out.steps).Seconds() })
		fmt.Fprintf(log, "steps: %d samples over %d untraced repetitions, %d beyond p99\n", len(steps), len(un), beyond)
	}
	if vals["serve.arrived"] > 0 {
		for q := 0; q < 4; q++ {
			vals[fmt.Sprintf("serve.host_us_per_req.q%d", q+1)] = perRep(func(r rep) float64 {
				if r.out.quarterArr[q] == 0 {
					return 0
				}
				return float64(r.out.quarterHost[q]) / 1e3 / float64(r.out.quarterArr[q])
			})
		}
	}

	// Sweep jobs.
	if vals["runner.jobs"] > 0 {
		width := float64(min(sweepWidth, len(m.reps[0].out.jobs)))
		vals["runner.busy_s"] = perRep(func(r rep) float64 { return busy(r).Seconds() })
		vals["runner.utilization"] = perRep(func(r rep) float64 { return busy(r).Seconds() / (width * r.run.Seconds()) })
		vals["runner.job_s_max"] = perRep(func(r rep) float64 {
			var mx time.Duration
			for _, j := range r.out.jobs {
				mx = max(mx, j.d)
			}
			return mx.Seconds()
		})
		for i, j := range m.reps[0].out.jobs {
			vals["runner.job_s."+j.key] = perRep(func(r rep) float64 { return r.out.jobs[i].d.Seconds() })
		}
	}

	// Traced repetitions: the policy split and the tracing overhead.
	if n := float64(len(traced)); n > 0 {
		byName := map[string]time.Duration{}
		for _, s := range m.spans {
			byName[s.name] += s.end - s.start
		}
		vals["session.advance_s"] = byName["session.advance"].Seconds() / n
		vals["policy.observe_s"] = byName["policy.observe"].Seconds() / n
		vals["session.apply_s"] = byName["session.apply"].Seconds() / n
		var tracedTotal time.Duration
		for _, r := range traced {
			tracedTotal += r.run
		}
		tracedRun := median(mapReps(traced, func(r rep) float64 { return r.run.Seconds() }))
		vals["trace.run_s"] = tracedRun
		vals["trace.overhead_s"] = tracedRun - wallS
		printLayerTable(log, m.spans, len(traced))
		fmt.Fprintf(log, "wall time: untraced %.4f s  traced %.4f s  tracing overhead %.4f s\n", wallS, tracedRun, tracedRun-wallS)
		top, all := coverage(m.spans)
		fmt.Fprintf(log, "per traced repetition: top-level spans %.4f s + harness %.4f s = traced wall time %.4f s; self times of all spans sum to %.4f s\n",
			top.Seconds()/n, (tracedTotal-top).Seconds()/n, tracedTotal.Seconds()/n, all.Seconds()/n)
	}
	return vals
}

func busy(r rep) time.Duration {
	var b time.Duration
	for _, j := range r.out.jobs {
		b += j.d
	}
	return b
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
