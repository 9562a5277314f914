package experiments

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure R (failure resilience) -------------------------------------------
//
// The paper's profiling-and-optimization loop assumes a fail-free cluster.
// Figure R measures what the failure-tolerance layer buys when that
// assumption breaks: under seed-deterministic node-crash schedules it
// compares
//
//   - crash-free:  the unperturbed baseline (reference for slowdowns);
//   - no-recovery: the crash schedule with the classic fail-free runtime —
//     threads stranded on a crashed node crawl at the crash factor for the
//     rest of the run;
//   - one-shot:    the crash schedule with a single profile-driven placement
//     (the classic "profile once, optimize once" shape): the placement
//     cannot react to nodes that die, so stranded threads stay stranded;
//   - recovery:    the crash schedule with the failure layer armed
//     (heartbeat/lease detection, safe-point evacuation, reliable flushes)
//     and the rebalance policy acting every epoch behind a health gate
//     that vetoes placements onto dead nodes.
//
// Crash times and detector timings are calibrated from the crash-free
// baseline's execution time so every Scale steps through the same schedule
// shape, and the acceptance bar (Violations) is strict: recovery must beat
// both no-recovery and one-shot on every schedule.

// FigRModes is the mode axis of the sweep, in row order.
var FigRModes = []string{"crash-free", "no-recovery", "one-shot", "recovery"}

// FigREpochs is the policy modes' epoch count relative to the baseline.
const FigREpochs = 8

// figRSchedule is one named crash schedule, its times expressed as
// numerator/denominator fractions of the crash-free execution time.
type figRSchedule struct {
	name    string
	crashes []struct {
		node     int
		num, den sim.Time
	}
}

// figRSchedules returns the schedule axis. All crashes are permanent
// (Restart 0): a transient outage lets even the fail-free runtime limp
// through, a permanent one separates recovery from hope.
func figRSchedules() []figRSchedule {
	type c = struct {
		node     int
		num, den sim.Time
	}
	return []figRSchedule{
		{"early-crash", []c{{1, 1, 4}}},
		{"late-crash", []c{{2, 1, 2}}},
		{"double-crash", []c{{1, 1, 4}, {2, 1, 2}}},
	}
}

// scheduleScenario materializes a schedule against the measured baseline.
func (s figRSchedule) scenario(base sim.Time, seed uint64) *scenario.Scenario {
	sc := &scenario.Scenario{Name: "figR/" + s.name, Seed: seed}
	for _, c := range s.crashes {
		sc.Crashes = append(sc.Crashes, scenario.Crash{Node: c.node, At: base * c.num / c.den})
	}
	return sc
}

// figRFailureConfig scales the detector's timings to the run length: leases
// expire within a few percent of the baseline execution time, so detection
// latency does not dominate short CI-scale runs.
func figRFailureConfig(base sim.Time) *gos.FailureConfig {
	hb := base / 64
	if hb < 50*sim.Microsecond {
		hb = 50 * sim.Microsecond
	}
	return &gos.FailureConfig{
		HeartbeatInterval: hb,
		LeaseTimeout:      3 * hb,
		SweepInterval:     hb,
		FlushTimeout:      4 * hb,
		FlushBackoff:      hb,
		MaxFlushBackoff:   16 * hb,
		MaxFlushRetries:   4,
	}
}

// HealthGate wraps an inner policy and vetoes actions that target nodes the
// failure detector currently reports dead: the inner planner balances load
// blindly, so after an evacuation it would happily migrate threads (or
// re-home hot objects) right back onto the crashed node. This is the
// snapshot Health view consumed as a policy input.
type HealthGate struct {
	Inner session.Policy
	// Vetoed counts dropped actions (observability for tables and tests).
	Vetoed int
}

// Name implements Policy.
func (p *HealthGate) Name() string { return p.Inner.Name() + "+healthgate" }

// NeedsProfile implements Policy.
func (p *HealthGate) NeedsProfile() bool { return p.Inner.NeedsProfile() }

// Observe implements Policy: it filters the inner policy's actions against
// the snapshot's node-health view.
func (p *HealthGate) Observe(snap *session.Snapshot) []session.Action {
	acts := p.Inner.Observe(snap)
	if snap.Health == nil {
		return acts
	}
	dead := make(map[int]bool)
	for _, nh := range snap.Health.Nodes {
		if !nh.Alive {
			dead[nh.Node] = true
		}
	}
	if len(dead) == 0 {
		return acts
	}
	kept := acts[:0]
	for _, a := range acts {
		switch act := a.(type) {
		case session.MigrateThread:
			if dead[act.To] {
				p.Vetoed++
				continue
			}
		case session.RehomeObject:
			if dead[act.To] {
				p.Vetoed++
				continue
			}
		}
		kept = append(kept, a)
	}
	return kept
}

// FigRRow is one (schedule, mode) measurement.
type FigRRow struct {
	Schedule string
	Mode     string
	Exec     sim.Time
	// Slowdown is this mode's exec / the crash-free exec (1.0 baseline).
	Slowdown float64
	// Failure-layer work: lease expiries, evacuated threads, flush retries
	// plus abandonments (zero for the modes that run without the layer).
	Expiries    int64
	Evacuations int64
	FlushRetry  int64
	// ThreadMoves counts completed policy migrations; Vetoed counts
	// health-gated actions the policy was not allowed to take.
	ThreadMoves int
	Vetoed      int
}

// FigRResult holds the resilience sweep.
type FigRResult struct {
	Scale    Scale
	Seed     uint64
	Workload string
	Rows     []FigRRow
}

// figRRun executes one cell: KVMix on 4 nodes / 8 threads with profiling
// attached, under an optional crash scenario, failure config and policy.
func figRRun(sc Scale, seed uint64, scen *scenario.Scenario, fc *gos.FailureConfig, policy session.Policy, epoch sim.Time) (*session.Session, sim.Time) {
	return cell{
		Config: session.Config{Kernel: cellKernel(gos.TrackingSampled, fc), Scenario: scen, Epoch: epoch},
		load:   figCLKVMix(sc),
		params: workload.Params{Threads: cellThreads, Seed: seed},
		prof:   &fullRate,
		policy: policy,
	}.run()
}

// FigR runs the resilience sweep at the given dataset scale: one crash-free
// pilot to calibrate crash times, detector timings and epoch lengths, then
// three modes per crash schedule fanned out through the pool.
func FigR(sc Scale, p *runner.Pool) *FigRResult {
	const seed = 42
	type cellRun struct {
		exec        sim.Time
		fstats      gos.FailureStats
		threadMoves int
		vetoed      int
	}
	summarize := func(s *session.Session, exec sim.Time, vetoed int) cellRun {
		return cellRun{
			exec:        exec,
			fstats:      s.Kernel().FailureStats(),
			threadMoves: len(s.MigrationEngine().History),
			vetoed:      vetoed,
		}
	}

	// Wave 1: the crash-free pilot everything else calibrates against.
	base := runner.Collect(p, []func() cellRun{func() cellRun {
		s, exec := figRRun(sc, seed, nil, nil, nil, 0)
		return summarize(s, exec, 0)
	}})[0]
	epoch := base.exec / FigREpochs
	if epoch <= 0 {
		epoch = sim.Millisecond
	}

	// Wave 2: per schedule — no-recovery, one-shot and recovery.
	schedules := figRSchedules()
	jobs := make([]func() cellRun, 0, 3*len(schedules))
	for _, sched := range schedules {
		sched := sched
		jobs = append(jobs,
			func() cellRun {
				s, exec := figRRun(sc, seed, sched.scenario(base.exec, seed), nil, nil, 0)
				return summarize(s, exec, 0)
			},
			func() cellRun {
				once := &oncePolicy{inner: session.NewRebalancePolicy()}
				s, exec := figRRun(sc, seed, sched.scenario(base.exec, seed), nil, once, epoch)
				return summarize(s, exec, 0)
			},
			func() cellRun {
				gate := &HealthGate{Inner: session.NewRebalancePolicy()}
				s, exec := figRRun(sc, seed, sched.scenario(base.exec, seed), figRFailureConfig(base.exec), gate, epoch)
				return summarize(s, exec, gate.Vetoed)
			})
	}
	cells := runner.Collect(p, jobs)

	res := &FigRResult{Scale: sc, Seed: seed, Workload: "KVMix"}
	add := func(sched, mode string, r cellRun) {
		res.Rows = append(res.Rows, FigRRow{
			Schedule:    sched,
			Mode:        mode,
			Exec:        r.exec,
			Slowdown:    float64(r.exec) / float64(base.exec),
			Expiries:    r.fstats.LeaseExpiries,
			Evacuations: r.fstats.Evacuations,
			FlushRetry:  r.fstats.FlushRetries + r.fstats.FlushesAbandoned,
			ThreadMoves: r.threadMoves,
			Vetoed:      r.vetoed,
		})
	}
	add("-", "crash-free", base)
	for i, sched := range schedules {
		add(sched.name, "no-recovery", cells[3*i])
		add(sched.name, "one-shot", cells[3*i+1])
		add(sched.name, "recovery", cells[3*i+2])
	}
	return res
}

// Row returns the (schedule, mode) cell, or nil.
func (r *FigRResult) Row(sched, mode string) *FigRRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Schedule == sched && row.Mode == mode {
			return row
		}
	}
	return nil
}

// Violations checks the sweep's acceptance bar — on every crash schedule
// the recovery mode must strictly beat both no-recovery and one-shot
// placement, and must actually have detected and evacuated something — and
// returns one message per broken invariant (empty means the figure holds).
func (r *FigRResult) Violations() []string {
	var out []string
	var evacTotal int64
	for _, sched := range figRSchedules() {
		noRec := r.Row(sched.name, "no-recovery")
		once := r.Row(sched.name, "one-shot")
		rec := r.Row(sched.name, "recovery")
		if noRec == nil || once == nil || rec == nil {
			out = append(out, fmt.Sprintf("%s: missing rows", sched.name))
			continue
		}
		if rec.Exec >= noRec.Exec {
			out = append(out, fmt.Sprintf("%s: recovery (%v) did not beat no-recovery (%v)",
				sched.name, rec.Exec, noRec.Exec))
		}
		if rec.Exec >= once.Exec {
			out = append(out, fmt.Sprintf("%s: recovery (%v) did not beat one-shot (%v)",
				sched.name, rec.Exec, once.Exec))
		}
		if rec.Expiries == 0 {
			out = append(out, fmt.Sprintf("%s: recovery never detected the crash", sched.name))
		}
		evacTotal += rec.Evacuations
	}
	// Evacuation is asserted across the sweep, not per schedule: a crash
	// landing after the closed loop already migrated the node's threads
	// away legitimately finds nothing to evacuate.
	if evacTotal == 0 {
		out = append(out, "no schedule ever evacuated a stranded thread")
	}
	return out
}

// Table renders the sweep.
func (r *FigRResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("FIGURE R. FAILURE RESILIENCE UNDER CRASH SCHEDULES (%s, 4 nodes, 8 threads, seed %d)", r.Workload, r.Seed),
		"Schedule", "Mode", "Exec", "Slowdown", "Expiries", "Evac", "Flush Retry", "Thr Moves", "Vetoed")
	prev := ""
	for _, row := range r.Rows {
		name := row.Schedule
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		t.AddRow(name, row.Mode, row.Exec.String(), fmt.Sprintf("%.3fx", row.Slowdown),
			fmt.Sprintf("%d", row.Expiries), fmt.Sprintf("%d", row.Evacuations),
			fmt.Sprintf("%d", row.FlushRetry), fmt.Sprintf("%d", row.ThreadMoves),
			fmt.Sprintf("%d", row.Vetoed))
	}
	return t
}

func (r *FigRResult) String() string { return r.Table().String() }
