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

// --- Figure G (serving through failures) -------------------------------------
//
// Figure R shows the *runtime* surviving node failures; Figure T shows the
// *serving path* under open-loop arrivals. Figure G is their product: burst
// arrivals over a cluster that crashes mid-run, judged on what a service
// owner is judged on — goodput within the SLO and tail latency. It sweeps
// three protection levels over each failure schedule:
//
//   - none: the raw serving path. Requests sticky-routed to a crashed
//     node's workers queue behind a CPU crawling at the crash factor, so
//     the tail collapses into hundreds of milliseconds and every one of
//     those requests still counts as "served".
//   - shed:  deadline + admission control only (workload.RobustConfig with
//     Capacity, nothing else). Requests that cannot finish are priced at
//     the deadline instead of unboundedly queueing — the tail is capped at
//     the SLO, but everything stranded on the dead node is still lost.
//   - full:  the whole stack — deadlines, shedding, bounded retries,
//     quantile-delayed hedging, and circuit breakers fed by the failure
//     detector (armed only here: breakers are the request-level consumer
//     of the declare-dead push). Stranded work is rerouted to live
//     replicas inside the deadline.
//
// The acceptance bar (Violations) requires the full stack to strictly beat
// both weaker levels on goodput-within-SLO *and* on P99, on every failure
// schedule, with no request leaking from the terminal-state ledger.

// FigGModes is the protection-level axis of the sweep, in row order.
var FigGModes = []string{"none", "shed", "full"}

// FigGSchedules is the failure-schedule axis: every schedule is combined
// with the same burst arrival process.
var FigGSchedules = []string{"crash", "flaky"}

// figGHorizon is the arrival horizon (fixed across scales, like Figure T:
// rates scale down, the period structure does not).
const figGHorizon = 2 * sim.Second

// figGDeadline is the per-request SLO all three protection levels are
// judged against.
const figGDeadline = 20 * sim.Millisecond

// figGArrivals is the burst arrival spec at the given dataset scale.
func figGArrivals(sc Scale) *scenario.Arrivals {
	r := 2500.0
	if sc > 1 {
		r /= float64(sc)
	}
	if r < 200 {
		r = 200
	}
	return &scenario.Arrivals{
		Kind:        scenario.ArriveBurst,
		Rate:        r,
		Horizon:     figGHorizon,
		BurstEvery:  figGHorizon / 4,
		BurstLen:    figGHorizon / 16,
		BurstFactor: 4,
	}
}

// figGScenario is the failure schedule × burst arrival combo. The crash
// schedule kills node 1 for good at a quarter horizon; the flaky schedule
// takes node 1 down for a quarter horizon and node 2 for an eighth.
func figGScenario(sched string, seed uint64, sc Scale) *scenario.Scenario {
	scen := &scenario.Scenario{
		Name:     "figG/" + sched,
		Seed:     seed,
		Arrivals: figGArrivals(sc),
	}
	switch sched {
	case "crash":
		scen.Crashes = []scenario.Crash{
			{Node: 1, At: figGHorizon / 4},
		}
	case "flaky":
		scen.Crashes = []scenario.Crash{
			{Node: 1, At: figGHorizon / 4, Restart: figGHorizon / 2},
			{Node: 2, At: figGHorizon * 5 / 8, Restart: figGHorizon * 3 / 4},
		}
	default:
		panic("figG: unknown schedule " + sched)
	}
	return scen
}

// figGFailureConfig is the detector timing for the full stack: leases
// expire in a fraction of the request deadline, so breakers open while
// stranded requests can still be rescued.
func figGFailureConfig() *gos.FailureConfig {
	hb := figGDeadline / 5
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

// figGRobust builds the protection level's serving config.
func figGRobust(mode string) *workload.RobustConfig {
	switch mode {
	case "none":
		return nil
	case "shed":
		return &workload.RobustConfig{Deadline: figGDeadline, Capacity: 16}
	case "full":
		rc := workload.DefaultRobustConfig()
		rc.Deadline = figGDeadline
		rc.Capacity = 16
		return rc
	default:
		panic("figG: unknown mode " + mode)
	}
}

// FigGRow is one (schedule, protection-level) measurement.
type FigGRow struct {
	Schedule string
	Mode     string
	workload.ServeStats
	// Failure-layer work under the full stack (zero elsewhere).
	LeaseExpiries, Evacuations int64
}

// FigGResult holds the serving-through-failures sweep.
type FigGResult struct {
	Scale Scale
	Seed  uint64
	Rows  []FigGRow
}

// figGRun executes one cell: ServeMix on 4 nodes / 8 threads under the
// failure × burst scenario, with the mode's protection level installed.
// No placement policy runs — the figure isolates the request-lifecycle
// layer, not the optimizer.
func figGRun(sched, mode string, sc Scale, seed uint64) FigGRow {
	var fc *gos.FailureConfig
	if mode == "full" {
		fc = figGFailureConfig()
	}
	w := workload.NewServeMix()
	w.RotateEvery = figGHorizon / 4
	w.Robust = figGRobust(mode)
	if w.Robust == nil {
		// The unprotected baseline still reports against the same SLO, so
		// goodput-within-SLO is comparable across all three levels.
		w.SLO = figGDeadline
	}
	s, exec := cell{
		Config: session.Config{Kernel: cellKernel(gos.TrackingOff, fc), Scenario: figGScenario(sched, seed, sc), Epoch: figGHorizon / 16},
		load:   w,
		params: workload.Params{Threads: cellThreads, Seed: seed},
	}.run()
	row := FigGRow{Schedule: sched, Mode: mode}
	w.ServeStatsInto(&row.ServeStats, exec)
	fs := s.Kernel().FailureStats()
	row.LeaseExpiries = fs.LeaseExpiries
	row.Evacuations = fs.Evacuations
	return row
}

// FigG runs the serving-through-failures sweep at the given dataset scale,
// fanning the schedule × protection-level grid through the pool.
func FigG(sc Scale, p *runner.Pool) *FigGResult {
	const seed = 42
	jobs := make([]func() FigGRow, 0, len(FigGSchedules)*len(FigGModes))
	for _, sched := range FigGSchedules {
		for _, mode := range FigGModes {
			sched, mode := sched, mode
			jobs = append(jobs, func() FigGRow { return figGRun(sched, mode, sc, seed) })
		}
	}
	cells := runner.Collect(p, jobs)
	return &FigGResult{Scale: sc, Seed: seed, Rows: cells}
}

// Row returns the (schedule, mode) cell, or nil.
func (r *FigGResult) Row(sched, mode string) *FigGRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Schedule == sched && row.Mode == mode {
			return row
		}
	}
	return nil
}

// terminal is the number of requests that reached a terminal state.
func (row *FigGRow) terminal() int {
	return row.Completed + int(row.Shed+row.DeadlineExceeded+row.FailedFast)
}

// Violations checks the figure's acceptance bar — on every failure
// schedule the full stack must strictly beat both the unprotected baseline
// and shed-only on goodput-within-SLO and on P99, every protected request
// must reach a terminal state, and the protection machinery must actually
// have fired — and returns one message per broken invariant (empty means
// the figure holds).
func (r *FigGResult) Violations() []string {
	var out []string
	for _, sched := range FigGSchedules {
		none := r.Row(sched, "none")
		shed := r.Row(sched, "shed")
		full := r.Row(sched, "full")
		if none == nil || shed == nil || full == nil {
			out = append(out, fmt.Sprintf("%s: missing rows", sched))
			continue
		}
		if none.Completed != none.Arrived || none.Completed == 0 {
			out = append(out, fmt.Sprintf("%s/none: served %d of %d requests",
				sched, none.Completed, none.Arrived))
		}
		for _, row := range []*FigGRow{shed, full} {
			if row.terminal() != row.Arrived || row.Completed == 0 {
				out = append(out, fmt.Sprintf("%s/%s: %d of %d requests reached a terminal state",
					sched, row.Mode, row.terminal(), row.Arrived))
			}
		}
		for _, weaker := range []*FigGRow{none, shed} {
			if full.SLOGoodputPerSec <= weaker.SLOGoodputPerSec {
				out = append(out, fmt.Sprintf("%s: full SLO goodput (%.0f/s) did not beat %s (%.0f/s)",
					sched, full.SLOGoodputPerSec, weaker.Mode, weaker.SLOGoodputPerSec))
			}
			if full.LatencyP99 >= weaker.LatencyP99 {
				out = append(out, fmt.Sprintf("%s: full P99 (%v) did not beat %s (%v)",
					sched, full.LatencyP99, weaker.Mode, weaker.LatencyP99))
			}
		}
		if full.Retried+full.Hedged+full.Rerouted == 0 {
			out = append(out, fmt.Sprintf("%s: full stack never retried, hedged, or rerouted", sched))
		}
		if full.BreakerOpens == 0 {
			out = append(out, fmt.Sprintf("%s: no breaker ever opened despite the failure schedule", sched))
		}
	}
	return out
}

// Table renders the sweep.
func (r *FigGResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("FIGURE G. SERVING THROUGH FAILURES (ServeMix, 4 nodes, 8 threads, %v SLO, seed %d)", sim.Time(figGDeadline), r.Seed),
		"Schedule", "Protect", "Done", "SLO Gput", "P50", "P99", "Max", "Shed", "Expired", "Retry", "Hedge", "Reroute", "Brk Open")
	prev := ""
	for _, row := range r.Rows {
		name := row.Schedule
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		t.AddRow(name, row.Mode,
			fmt.Sprintf("%d/%d", row.Completed, row.Arrived),
			fmt.Sprintf("%.0f/s", row.SLOGoodputPerSec),
			row.LatencyP50.String(), row.LatencyP99.String(), row.LatencyMax.String(),
			fmt.Sprintf("%d", row.Shed), fmt.Sprintf("%d", row.DeadlineExceeded),
			fmt.Sprintf("%d", row.Retried), fmt.Sprintf("%d", row.Hedged),
			fmt.Sprintf("%d", row.Rerouted), fmt.Sprintf("%d", row.BreakerOpens))
	}
	return t
}

func (r *FigGResult) String() string { return r.Table().String() }
