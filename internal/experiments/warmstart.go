package experiments

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/metrics"
	"jessica2/internal/profile"
	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure W (profile-guided warm start) ------------------------------------
//
// Every closed-loop figure so far pays the full profiling bill on every run:
// the cold run samples at the full rate from epoch 0 and spends whole phases
// learning a placement the previous run already knew. Figure W measures the
// payoff of persisting that knowledge: the cold run saves its end-of-run
// profile (internal/profile), and a warm run reloads it — stored placement
// applied before epoch 0, TCM accumulator seeded, sampling gated down to the
// floor rate wherever the live run matches the profile (session.
// WarmStartPolicy). Per application the figure compares
//
//   - cold: the rebalance policy at the full sampling rate — the capture run
//     itself (arming Config.Profile.Save is byte-invisible, so the capture
//     run IS the cold measurement);
//   - warm: the same schedule restarted with the captured profile loaded and
//     the warm-start policy driving the divergence-gated rate.
//
// Two applications exercise the two allocation shapes: phase-shifting KVMix
// (closed-loop, records preallocated — the epoch-1 home replay lands
// immediately) and ServeMix under diurnal open-loop arrivals (objects
// allocate lazily per request — the replay no-ops and the closed-gate
// steering path re-homes hot objects as they surface).
//
// The acceptance bar (Violations) is strict on KVMix: the warm run must
// converge in strictly fewer epochs, must charge strictly less profiling
// overhead, and must finish within FigWEpsilon of the cold execution time.
// On ServeMix the bar is the charge reduction plus full request completion
// and tail latency within FigWServeEpsilon.

// FigWApps is the application axis of the sweep, in row order.
var FigWApps = []string{"KVMix/phased", "ServeMix/diurnal"}

// FigWModes is the mode axis of the sweep, in row order.
var FigWModes = []string{"cold", "warm"}

// FigWEpsilon bounds the warm run's closed-loop quality regression: warm
// execution time must stay within (1+ε) of cold.
const FigWEpsilon = 0.05

// FigWServeEpsilon bounds the warm run's open-loop quality regression: warm
// P99 latency must stay within (1+ε) of cold. The serve bar is looser than
// the batch bar because the warm run re-homes lazily allocated objects from
// floor-rate evidence as they surface instead of chasing them at the full
// rate.
const FigWServeEpsilon = 0.50

// figWEpoch is the closed-loop epoch length: fixed (no pilot calibration,
// matching ClosedLoopProbe) so the capture and warm runs step through
// identical boundary schedules and one sweep is one deterministic pass.
const figWEpoch = 2 * sim.Millisecond

// FigWRow is one (application, mode) measurement.
type FigWRow struct {
	App  string
	Mode string // "cold", "warm"
	// ConvergenceEpoch is the last epoch boundary that applied a placement
	// action (thread migration or object re-home): the epoch the run
	// stopped learning placement.
	ConvergenceEpoch int
	// ProfilingCharge is the simulated CPU spent on profiling: correlation
	// logging, object re-tagging after rate changes, and the master
	// analyzer's reorg + TCM accrual.
	ProfilingCharge sim.Time
	CorrLogs        int64
	Resampled       int64
	Exec            sim.Time
	ThreadMoves     int
	HomeMoves       int64
	// Completed/Arrived and LatencyP99 are the open-loop serving metrics
	// (zero for the closed-loop application).
	Arrived, Completed int
	LatencyP99         sim.Time
}

// FigWResult holds the warm-start sweep.
type FigWResult struct {
	Scale Scale
	Seed  uint64
	Rows  []FigWRow
}

// figWRun executes one cell of either application: KVMix under the phased
// scenario at fixed epochs, or ServeMix under diurnal open-loop arrivals at
// the Figure T epoch grid. The profile IO config carries the Save arming
// (capture cells) or the loaded profile (warm cells).
func figWRun(app string, sc Scale, seed uint64, pio session.ProfileIO, policy session.Policy) (*session.Session, sim.Time, *workload.ServeStats) {
	var (
		w     workload.Workload
		scen  *scenario.Scenario
		epoch sim.Time
		serve *workload.ServeMix
	)
	switch app {
	case "KVMix/phased":
		w = figCLKVMix(sc)
		var err error
		scen, err = scenario.Preset("phased", cellNodes, seed)
		if err != nil {
			panic(err)
		}
		epoch = figWEpoch
	case "ServeMix/diurnal":
		serve = figTServeMix()
		w = serve
		scen = &scenario.Scenario{
			Name:     "figW/diurnal",
			Seed:     seed,
			Arrivals: figTArrivals("diurnal", sc),
		}
		epoch = figTHorizon / FigTEpochs
	default:
		panic("figW: unknown app " + app)
	}

	s, exec := cell{
		Config: session.Config{Kernel: cellKernel(gos.TrackingSampled, nil), Scenario: scen, Epoch: epoch, Profile: pio},
		load:   w,
		params: workload.Params{Threads: cellThreads, Seed: seed},
		prof:   &fullRate,
		policy: policy,
	}.run()
	var stats *workload.ServeStats
	if serve != nil {
		stats = serve.ServeStatsInto(nil, exec)
	}
	return s, exec, stats
}

// lastPlacementEpoch returns the last epoch boundary whose observed policy
// applied a placement action (Note == "" on a thread migration or object
// re-home) — the epoch the run stopped learning placement.
func lastPlacementEpoch(s *session.Session) int {
	last := 0
	for _, a := range s.Actions() {
		if a.Note != "" {
			continue
		}
		switch a.Action.(type) {
		case session.MigrateThread, session.RehomeObject:
			if a.Epoch > last {
				last = a.Epoch
			}
		}
	}
	return last
}

// profilingCharge totals the simulated CPU the run spent on profiling:
// correlation logging at the kernel's calibrated per-log cost, re-tagging
// cached objects after sampling-plan changes, and the master analyzer's
// OAL reorganization plus TCM accrual.
func profilingCharge(s *session.Session) sim.Time {
	k := s.Kernel()
	st := k.Stats()
	return sim.Time(st.CorrelationLogs)*k.Cfg.Costs.LogCost +
		sim.Time(st.ResampledObjs)*k.Cfg.Costs.ResampleCostPerObject +
		k.Master().ComputeTime()
}

// FigW runs the warm-start sweep at the given dataset scale: per
// application, one capture run (the cold measurement, profile saved at the
// end) fans out through the pool, then the warm runs reload the captured
// profiles in a second wave.
func FigW(sc Scale, p *runner.Pool) *FigWResult {
	const seed = 42
	type cellRun struct {
		row      FigWRow
		captured *profile.Profile
	}
	summarize := func(app, mode string, s *session.Session, exec sim.Time, stats *workload.ServeStats) FigWRow {
		row := FigWRow{
			App:              app,
			Mode:             mode,
			ConvergenceEpoch: lastPlacementEpoch(s),
			ProfilingCharge:  profilingCharge(s),
			CorrLogs:         s.Kernel().Stats().CorrelationLogs,
			Resampled:        s.Kernel().Stats().ResampledObjs,
			Exec:             exec,
			ThreadMoves:      len(s.MigrationEngine().History),
			HomeMoves:        s.Kernel().Stats().HomeMigrations,
		}
		if stats != nil {
			row.Arrived, row.Completed = stats.Arrived, stats.Completed
			row.LatencyP99 = stats.LatencyP99
		}
		return row
	}

	// Wave 1: per application, the capture run — rebalance policy at the
	// full rate with Save armed. Arming is byte-invisible, so this run is
	// also the cold measurement.
	capJobs := make([]func() cellRun, len(FigWApps))
	for i := range FigWApps {
		app := FigWApps[i]
		capJobs[i] = func() cellRun {
			s, exec, stats := figWRun(app, sc, seed,
				session.ProfileIO{Save: true}, session.NewRebalancePolicy())
			prof, err := s.CapturedProfile()
			if err != nil {
				panic(err)
			}
			return cellRun{row: summarize(app, "cold", s, exec, stats), captured: prof}
		}
	}
	colds := runner.Collect(p, capJobs)

	// Wave 2: per application, the warm run — captured profile loaded, the
	// warm-start policy gating the sampling rate from divergence.
	warmJobs := make([]func() cellRun, len(FigWApps))
	for i := range FigWApps {
		app, prof := FigWApps[i], colds[i].captured
		warmJobs[i] = func() cellRun {
			s, exec, stats := figWRun(app, sc, seed,
				session.ProfileIO{Load: prof}, session.NewWarmStartPolicy(prof))
			if w := s.ProfileWarning(); w != "" {
				panic("figW: warm run rejected its own capture: " + w)
			}
			return cellRun{row: summarize(app, "warm", s, exec, stats)}
		}
	}
	warms := runner.Collect(p, warmJobs)

	res := &FigWResult{Scale: sc, Seed: seed}
	for i := range FigWApps {
		res.Rows = append(res.Rows, colds[i].row, warms[i].row)
	}
	return res
}

// Row returns the (application, mode) cell, or nil.
func (r *FigWResult) Row(app, mode string) *FigWRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.App == app && row.Mode == mode {
			return row
		}
	}
	return nil
}

// Violations checks the sweep's acceptance bar and returns one message per
// broken invariant (empty means the figure holds). On the closed-loop
// application the warm start must strictly reduce both the convergence
// epoch and the profiling charge while execution time stays within
// FigWEpsilon of cold. On the open-loop application it must strictly reduce
// the profiling charge, serve the full schedule in both modes, and keep P99
// within FigWServeEpsilon of cold.
func (r *FigWResult) Violations() []string {
	var out []string
	for _, app := range FigWApps {
		cold, warm := r.Row(app, "cold"), r.Row(app, "warm")
		if cold == nil || warm == nil {
			out = append(out, fmt.Sprintf("%s: missing rows", app))
			continue
		}
		if warm.ProfilingCharge >= cold.ProfilingCharge {
			out = append(out, fmt.Sprintf("%s: warm profiling charge (%v) did not beat cold (%v)",
				app, warm.ProfilingCharge, cold.ProfilingCharge))
		}
		switch app {
		case "KVMix/phased":
			if warm.ConvergenceEpoch >= cold.ConvergenceEpoch {
				out = append(out, fmt.Sprintf("%s: warm converged at epoch %d, cold at %d",
					app, warm.ConvergenceEpoch, cold.ConvergenceEpoch))
			}
			if max := sim.Time(float64(cold.Exec) * (1 + FigWEpsilon)); warm.Exec > max {
				out = append(out, fmt.Sprintf("%s: warm exec (%v) beyond cold (%v) + %.0f%%",
					app, warm.Exec, cold.Exec, FigWEpsilon*100))
			}
		case "ServeMix/diurnal":
			for _, row := range []*FigWRow{cold, warm} {
				if row.Completed != row.Arrived || row.Completed == 0 {
					out = append(out, fmt.Sprintf("%s/%s: served %d of %d requests",
						app, row.Mode, row.Completed, row.Arrived))
				}
			}
			if max := sim.Time(float64(cold.LatencyP99) * (1 + FigWServeEpsilon)); warm.LatencyP99 > max {
				out = append(out, fmt.Sprintf("%s: warm P99 (%v) beyond cold (%v) + %.0f%%",
					app, warm.LatencyP99, cold.LatencyP99, FigWServeEpsilon*100))
			}
		}
	}
	return out
}

// Table renders the sweep.
func (r *FigWResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("FIGURE W. PROFILE-GUIDED WARM START VS COLD START (4 nodes, 8 threads, seed %d)", r.Seed),
		"App", "Mode", "Conv Epoch", "Prof Charge", "Corr Logs", "Resampled",
		"Exec", "P99", "Thr Moves", "Home Moves")
	prev := ""
	for _, row := range r.Rows {
		name := row.App
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		p99 := "-"
		if row.Arrived > 0 {
			p99 = row.LatencyP99.String()
		}
		t.AddRow(name, row.Mode,
			fmt.Sprintf("%d", row.ConvergenceEpoch),
			row.ProfilingCharge.String(),
			fmt.Sprintf("%d", row.CorrLogs), fmt.Sprintf("%d", row.Resampled),
			row.Exec.String(), p99,
			fmt.Sprintf("%d", row.ThreadMoves), fmt.Sprintf("%d", row.HomeMoves))
	}
	return t
}

func (r *FigWResult) String() string { return r.Table().String() }
