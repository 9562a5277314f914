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

// --- Figure CL (closed-loop adaptation) --------------------------------------
//
// The paper profiles at runtime but only exploits the profile post hoc. The
// closed-loop session API closes that loop: at every epoch boundary a policy
// observes the incremental profile and migrates threads / re-homes objects
// while the run continues. Figure CL quantifies the payoff: for phase-rich
// workloads under fault-injection scenarios it compares
//
//   - none:        the passive baseline (no policy ever acts);
//   - one-shot:    the rebalance policy allowed to act at a single boundary
//     (the classic "profile once, then optimize" shape, applied online at
//     the run's midpoint);
//   - closed-loop: the rebalance policy acting at every boundary across
//     FigCLEpochs epochs, chasing the workload as it shifts.
//
// Epoch lengths are calibrated from the baseline's execution time so all
// modes step through comparable schedules.

// FigCLScenarios is the scenario axis of the sweep.
var FigCLScenarios = []string{"phased", "noisy"}

// FigCLEpochs is the closed-loop mode's epoch count.
const FigCLEpochs = 8

// FigCLRow is one (workload, scenario, mode) measurement.
type FigCLRow struct {
	Workload string
	Scenario string
	Mode     string // "none", "one-shot", "closed-loop"
	Epochs   int
	Exec     sim.Time
	// Speedup is baseline exec / this mode's exec (1.0 for the baseline).
	Speedup float64
	// ThreadMoves / HomeMoves count applied migrations; Faults is the
	// kernel's remote object fault total.
	ThreadMoves int
	HomeMoves   int64
	Faults      int64
}

// FigCLResult holds the closed-loop sweep.
type FigCLResult struct {
	Scale Scale
	Seed  uint64
	Rows  []FigCLRow
}

// figCLKVMix builds the phase-rich KVMix instance: rounds short relative to
// the phased scenario's 120 ms shifts, so each phase spans several rounds
// and an online policy has time to react inside a phase.
func figCLKVMix(sc Scale) workload.Workload {
	w := workload.NewKVMix()
	w.Keys, w.ValueSize = 2048, 128
	w.Rounds, w.TxnsPerRound, w.OpsPerTxn = 24, 24, 4
	w.HotSpan = 256
	if s := int(sc); s > 1 {
		w.TxnsPerRound /= s
		if w.TxnsPerRound < 8 {
			w.TxnsPerRound = 8
		}
	}
	return w
}

// figCLSynthetic builds the zipf-skewed synthetic: the hot objects all live
// in one thread's region (homed on one node), the canonical target for
// online home rebalancing.
func figCLSynthetic(sc Scale) workload.Workload {
	w := workload.NewSynthetic()
	w.Pattern = workload.PatternZipf
	w.Intervals = 16
	w.AccessesPerInterval = 1024
	w.WriteFraction = 0.4
	if s := int(sc); s > 1 {
		w.AccessesPerInterval /= s
		if w.AccessesPerInterval < 128 {
			w.AccessesPerInterval = 128
		}
	}
	return w
}

// oncePolicy passes through its inner policy's first acting boundary, then
// goes passive — the "one-shot" optimization mode.
type oncePolicy struct {
	inner session.Policy
	acted bool
}

func (p *oncePolicy) Name() string { return p.inner.Name() + "-once" }

func (p *oncePolicy) NeedsProfile() bool { return !p.acted && p.inner.NeedsProfile() }

func (p *oncePolicy) Observe(s *session.Snapshot) []session.Action {
	if p.acted {
		return nil
	}
	acts := p.inner.Observe(s)
	if len(acts) > 0 {
		p.acted = true
	}
	return acts
}

// figCLRun executes one cell and returns the finished session and its
// execution time.
func figCLRun(w workload.Workload, scenName string, seed uint64, policy session.Policy, epoch sim.Time) (*session.Session, sim.Time) {
	scen, err := scenario.Preset(scenName, cellNodes, seed)
	if err != nil {
		panic(err)
	}
	return cell{
		Config: session.Config{Kernel: cellKernel(gos.TrackingSampled, nil), Scenario: scen, Epoch: epoch},
		load:   w,
		params: workload.Params{Threads: cellThreads, Seed: seed},
		prof:   &fullRate,
		policy: policy,
	}.run()
}

// FigCL runs the closed-loop sweep at the given dataset scale. The sweep
// is two waves of independent session runs submitted through the pool: the
// policy modes calibrate their epoch lengths from the baseline's execution
// time, so the four baselines fan out first, then all eight policy runs.
func FigCL(sc Scale, p *runner.Pool) *FigCLResult {
	const seed = 42
	loads := []struct {
		name string
		make func(Scale) workload.Workload
	}{
		{"KVMix", figCLKVMix},
		{"Synthetic/zipf", figCLSynthetic},
	}
	// cellRun carries only the scalars the fold reads, so the sessions (a
	// full kernel + registry + simulated heap each) are released as soon as
	// their job returns instead of being pinned until the final fold.
	type cellRun struct {
		exec        sim.Time
		faults      int64
		homeMoves   int64
		threadMoves int
	}
	summarize := func(s *session.Session, exec sim.Time) cellRun {
		return cellRun{
			exec:        exec,
			faults:      s.Kernel().Stats().Faults,
			homeMoves:   s.Kernel().Stats().HomeMigrations,
			threadMoves: len(s.MigrationEngine().History),
		}
	}
	type cell struct {
		load string
		make func(Scale) workload.Workload
		scen string
	}
	var cells []cell
	for _, ld := range loads {
		for _, scen := range FigCLScenarios {
			cells = append(cells, cell{ld.name, ld.make, scen})
		}
	}

	// Wave 1: baselines (no policy), one per cell.
	baseJobs := make([]func() cellRun, len(cells))
	for i := range cells {
		c := cells[i]
		baseJobs[i] = func() cellRun {
			return summarize(figCLRun(c.make(sc), c.scen, seed, nil, 0))
		}
	}
	bases := runner.Collect(p, baseJobs)

	// Wave 2: per cell, the one-shot and closed-loop modes, with epoch
	// lengths derived from that cell's baseline.
	modeJobs := make([]func() cellRun, 0, 2*len(cells))
	for i := range cells {
		c, baseExec := cells[i], bases[i].exec
		modeJobs = append(modeJobs,
			func() cellRun {
				oneShot := &oncePolicy{inner: session.NewRebalancePolicy()}
				return summarize(figCLRun(c.make(sc), c.scen, seed, oneShot, baseExec/2))
			},
			func() cellRun {
				return summarize(figCLRun(c.make(sc), c.scen, seed, session.NewRebalancePolicy(), baseExec/FigCLEpochs))
			})
	}
	modes := runner.Collect(p, modeJobs)

	res := &FigCLResult{Scale: sc, Seed: seed}
	for i, c := range cells {
		baseExec := bases[i].exec
		res.Rows = append(res.Rows, FigCLRow{
			Workload: c.load, Scenario: c.scen, Mode: "none", Epochs: 1,
			Exec: baseExec, Speedup: 1,
			Faults: bases[i].faults,
		})
		add := func(mode string, epochs int, r cellRun) {
			res.Rows = append(res.Rows, FigCLRow{
				Workload: c.load, Scenario: c.scen, Mode: mode, Epochs: epochs,
				Exec:        r.exec,
				Speedup:     float64(baseExec) / float64(r.exec),
				Faults:      r.faults,
				HomeMoves:   r.homeMoves,
				ThreadMoves: r.threadMoves,
			})
		}
		add("one-shot", 2, modes[2*i])
		add("closed-loop", FigCLEpochs, modes[2*i+1])
	}
	return res
}

// ClosedLoopProbe runs one closed-loop cell to completion — KVMix or the
// zipf-skewed Synthetic under the phased scenario, rebalance policy, fixed
// 2 ms epochs (no pilot calibration, so one deterministic run) — and
// returns the finished session plus its execution time. It is the shared
// substrate of the epoch-rate benchmarks and the djvmbench epoch-snapshot
// case: a finished probe's master daemon holds a realistic ingested
// population for TCM micro-benchmarks, and the run itself exercises the
// per-boundary snapshot path once per epoch.
func ClosedLoopProbe(sc Scale, load string) (*session.Session, sim.Time) {
	var w workload.Workload
	switch load {
	case "kv", "kvmix":
		w = figCLKVMix(sc)
	default:
		w = figCLSynthetic(sc)
	}
	return figCLRun(w, "phased", 42, session.NewRebalancePolicy(), 2*sim.Millisecond)
}

// Row returns the (workload, scenario, mode) cell, or nil.
func (r *FigCLResult) Row(load, scen, mode string) *FigCLRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Workload == load && row.Scenario == scen && row.Mode == mode {
			return row
		}
	}
	return nil
}

// Table renders the sweep.
func (r *FigCLResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("FIGURE CL. CLOSED-LOOP ADAPTATION VS ONE-SHOT VS NO MIGRATION (4 nodes, 8 threads, seed %d)", r.Seed),
		"Workload", "Scenario", "Mode", "Epochs", "Exec", "Speedup", "Thr Moves", "Home Moves", "Faults")
	prev := ""
	for _, row := range r.Rows {
		group := row.Workload + "/" + row.Scenario
		name, scen := row.Workload, row.Scenario
		if group == prev {
			name, scen = "", ""
		} else {
			prev = group
		}
		t.AddRow(name, scen, row.Mode, fmt.Sprintf("%d", row.Epochs),
			row.Exec.String(), fmt.Sprintf("%.3fx", row.Speedup),
			fmt.Sprintf("%d", row.ThreadMoves), fmt.Sprintf("%d", row.HomeMoves),
			fmt.Sprintf("%d", row.Faults))
	}
	return t
}

func (r *FigCLResult) String() string { return r.Table().String() }
