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

// --- Figure T (open-loop traffic) --------------------------------------------
//
// Every other figure judges the runtime on execution time of a closed-loop
// batch. Figure T judges it the way a serving system is judged: requests
// arrive on an open-loop schedule whether or not the cluster keeps up, and
// the metric is tail latency. Under seed-deterministic diurnal and bursty
// arrival schedules (scenario.Arrivals driving workload.ServeMix) it
// compares
//
//   - nop:         the passive baseline — every shared object stays homed on
//     the loader's node, every remote worker faults on every request;
//   - one-shot:    the rebalance policy allowed to act at a single epoch
//     boundary early in the run ("profile once, optimize once"): the hot
//     tenant window keeps rotating after the single placement, so the
//     optimized homes go stale;
//   - closed-loop: the rebalance policy acting at every epoch boundary,
//     chasing the rotating hot window as the TCM reports it.
//
// The acceptance bar (Violations) is strict: on every schedule the
// closed-loop mode must beat both baselines on P99 latency, must actually
// have moved homes, and must finish every request.

// FigTModes is the mode axis of the sweep, in row order.
var FigTModes = []string{"nop", "one-shot", "closed-loop"}

// FigTSchedules is the arrival-schedule axis of the sweep.
var FigTSchedules = []string{"diurnal", "burst"}

// FigTEpochs is the number of epoch boundaries across the arrival horizon.
const FigTEpochs = 16

// figTHorizon is the arrival horizon; rates scale with 1/Scale, the horizon
// does not (the diurnal/burst shape must keep its period structure).
const figTHorizon = 2 * sim.Second

// figTArrivals builds the named arrival spec at the given dataset scale.
func figTArrivals(sched string, sc Scale) *scenario.Arrivals {
	scaleRate := func(r float64) float64 {
		if sc > 1 {
			r /= float64(sc)
		}
		if r < 200 {
			r = 200
		}
		return r
	}
	switch sched {
	case "diurnal":
		return &scenario.Arrivals{
			Kind:    scenario.ArriveDiurnal,
			Rate:    scaleRate(6000),
			Horizon: figTHorizon,
			Period:  figTHorizon / 2,
			Trough:  0.2,
		}
	case "burst":
		return &scenario.Arrivals{
			Kind:        scenario.ArriveBurst,
			Rate:        scaleRate(2500),
			Horizon:     figTHorizon,
			BurstEvery:  figTHorizon / 4,
			BurstLen:    figTHorizon / 16,
			BurstFactor: 4,
		}
	default:
		panic("figT: unknown schedule " + sched)
	}
}

// figTServeMix builds the serving workload: defaults, with the hot-window
// rotation pinned to a quarter horizon so each run sees four distinct hot
// sets — enough churn to strand a one-shot placement.
func figTServeMix() *workload.ServeMix {
	w := workload.NewServeMix()
	w.RotateEvery = figTHorizon / 4
	return w
}

// FigTRow is one (schedule, mode) measurement.
type FigTRow struct {
	Schedule string
	Mode     string
	// Arrived/Completed count requests; the serving percentiles and goodput
	// are measured over the whole run on the simulated clock.
	Arrived, Completed     int
	GoodputPerSec          float64
	LatencyP50, LatencyP95 sim.Time
	LatencyP99, LatencyMax sim.Time
	ThreadMoves            int
	HomeMoves              int64
	Faults                 int64
}

// FigTResult holds the open-loop traffic sweep.
type FigTResult struct {
	Scale    Scale
	Seed     uint64
	Workload string
	Rows     []FigTRow
}

// figTRun executes one cell: ServeMix on 4 nodes / 8 threads, the arrival
// schedule generated by the scenario layer from (spec, seed), profiling
// attached, under the given policy.
func figTRun(sched string, sc Scale, seed uint64, policy session.Policy) (*session.Session, *workload.ServeStats) {
	scen := &scenario.Scenario{
		Name:     "figT/" + sched,
		Seed:     seed,
		Arrivals: figTArrivals(sched, sc),
	}
	w := figTServeMix()
	s, exec := cell{
		Config: session.Config{Kernel: cellKernel(gos.TrackingSampled, nil), Scenario: scen, Epoch: figTHorizon / FigTEpochs},
		load:   w,
		params: workload.Params{Threads: cellThreads, Seed: seed},
		prof:   &fullRate,
		policy: policy,
	}.run()
	return s, w.ServeStatsInto(nil, exec)
}

// FigT runs the open-loop traffic sweep at the given dataset scale: three
// policy modes per arrival schedule, fanned out through the pool. Unlike
// FigR there is no pilot wave — the schedule is fixed by the arrival spec,
// not calibrated from a baseline run.
func FigT(sc Scale, p *runner.Pool) *FigTResult {
	const seed = 42
	type cellRun struct {
		stats       workload.ServeStats
		threadMoves int
		homeMoves   int64
		faults      int64
	}
	summarize := func(s *session.Session, st *workload.ServeStats) cellRun {
		return cellRun{
			stats:       *st,
			threadMoves: len(s.MigrationEngine().History),
			homeMoves:   s.Kernel().Stats().HomeMigrations,
			faults:      s.Kernel().Stats().Faults,
		}
	}

	jobs := make([]func() cellRun, 0, len(FigTSchedules)*len(FigTModes))
	for _, sched := range FigTSchedules {
		sched := sched
		jobs = append(jobs,
			func() cellRun {
				return summarize(figTRun(sched, sc, seed, session.NopPolicy{}))
			},
			func() cellRun {
				once := &oncePolicy{inner: session.NewRebalancePolicy()}
				return summarize(figTRun(sched, sc, seed, once))
			},
			func() cellRun {
				return summarize(figTRun(sched, sc, seed, session.NewRebalancePolicy()))
			})
	}
	cells := runner.Collect(p, jobs)

	res := &FigTResult{Scale: sc, Seed: seed, Workload: "ServeMix"}
	for i, sched := range FigTSchedules {
		for j, mode := range FigTModes {
			r := cells[i*len(FigTModes)+j]
			res.Rows = append(res.Rows, FigTRow{
				Schedule:      sched,
				Mode:          mode,
				Arrived:       r.stats.Arrived,
				Completed:     r.stats.Completed,
				GoodputPerSec: r.stats.GoodputPerSec,
				LatencyP50:    r.stats.LatencyP50,
				LatencyP95:    r.stats.LatencyP95,
				LatencyP99:    r.stats.LatencyP99,
				LatencyMax:    r.stats.LatencyMax,
				ThreadMoves:   r.threadMoves,
				HomeMoves:     r.homeMoves,
				Faults:        r.faults,
			})
		}
	}
	return res
}

// Row returns the (schedule, mode) cell, or nil.
func (r *FigTResult) Row(sched, mode string) *FigTRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Schedule == sched && row.Mode == mode {
			return row
		}
	}
	return nil
}

// Violations checks the sweep's acceptance bar — on every arrival schedule
// the closed-loop mode must strictly beat both the nop baseline and the
// one-shot placement on P99 latency, must have re-homed objects, and every
// mode must serve its full schedule — and returns one message per broken
// invariant (empty means the figure holds).
func (r *FigTResult) Violations() []string {
	var out []string
	for _, sched := range FigTSchedules {
		nop := r.Row(sched, "nop")
		once := r.Row(sched, "one-shot")
		closed := r.Row(sched, "closed-loop")
		if nop == nil || once == nil || closed == nil {
			out = append(out, fmt.Sprintf("%s: missing rows", sched))
			continue
		}
		for _, row := range []*FigTRow{nop, once, closed} {
			if row.Completed != row.Arrived || row.Completed == 0 {
				out = append(out, fmt.Sprintf("%s/%s: served %d of %d requests",
					sched, row.Mode, row.Completed, row.Arrived))
			}
		}
		if closed.LatencyP99 >= nop.LatencyP99 {
			out = append(out, fmt.Sprintf("%s: closed-loop P99 (%v) did not beat nop (%v)",
				sched, closed.LatencyP99, nop.LatencyP99))
		}
		if closed.LatencyP99 >= once.LatencyP99 {
			out = append(out, fmt.Sprintf("%s: closed-loop P99 (%v) did not beat one-shot (%v)",
				sched, closed.LatencyP99, once.LatencyP99))
		}
		if closed.HomeMoves == 0 {
			out = append(out, fmt.Sprintf("%s: closed-loop never re-homed an object", sched))
		}
	}
	return out
}

// Table renders the sweep.
func (r *FigTResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("FIGURE T. TAIL LATENCY UNDER OPEN-LOOP ARRIVALS (%s, 4 nodes, 8 threads, seed %d)", r.Workload, r.Seed),
		"Schedule", "Mode", "Done", "Goodput", "P50", "P95", "P99", "Max", "Thr Moves", "Home Moves", "Faults")
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
			fmt.Sprintf("%.0f/s", row.GoodputPerSec),
			row.LatencyP50.String(), row.LatencyP95.String(),
			row.LatencyP99.String(), row.LatencyMax.String(),
			fmt.Sprintf("%d", row.ThreadMoves), fmt.Sprintf("%d", row.HomeMoves),
			fmt.Sprintf("%d", row.Faults))
	}
	return t
}

func (r *FigTResult) String() string { return r.Table().String() }
