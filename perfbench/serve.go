package main

import (
	"fmt"
	"sort"
	"time"

	"jessica2/internal/gos"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// serveDeadline is the per-request SLO (Figure G's).
const serveDeadline = 20 * sim.Millisecond

// serveBench is the serve-faults workload: ServeMix under burst arrivals
// and Figure G's flaky crash schedule, with the full request-lifecycle
// stack (deadlines, shedding, retries, hedging, breakers) and the failure
// detector on, tracking off, no placement policy. The arrival schedule is
// generated from the seed and handed to the workload; latency is timed on
// the simulated clock from each request's scheduled arrival.
type serveBench struct {
	seed     uint64
	horizon  sim.Time
	epoch    sim.Time
	scen     *scenario.Scenario
	schedule []sim.Time
}

func newServe(seed uint64, rate float64, horizon sim.Time) (*serveBench, error) {
	arr := &scenario.Arrivals{
		Kind:        scenario.ArriveBurst,
		Rate:        rate,
		Horizon:     horizon,
		BurstEvery:  horizon / 4,
		BurstLen:    horizon / 16,
		BurstFactor: 4,
	}
	scen := &scenario.Scenario{
		Name: "serve-faults",
		Seed: seed,
		Crashes: []scenario.Crash{
			{Node: 1, At: horizon / 4, Restart: horizon / 2},
			{Node: 2, At: horizon * 5 / 8, Restart: horizon * 3 / 4},
		},
	}
	if err := arr.Validate(); err != nil {
		return nil, fmt.Errorf("serve-faults arrivals: %w", err)
	}
	return &serveBench{
		seed: seed, horizon: horizon, epoch: horizon / 2000,
		scen: scen, schedule: arr.Schedule(seed),
	}, nil
}

// serveFailureConfig is Figure G's detector timing: leases expire in a
// fraction of the deadline, so breakers open while stranded requests can
// still be rescued.
func serveFailureConfig() *gos.FailureConfig {
	hb := serveDeadline / 5
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

type serveRun struct {
	b *serveBench
	s *session.Session
	w *workload.ServeMix
}

func (b *serveBench) setup() (instance, setupSplit, error) {
	var sp setupSplit
	t0 := time.Now()
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = 4
	kcfg.Tracking = gos.TrackingOff
	kcfg.Failure = serveFailureConfig()
	s := session.New(session.Config{Kernel: kcfg, Scenario: b.scen})
	t1 := time.Now()
	w := workload.NewServeMix()
	w.RotateEvery = b.horizon / 4
	w.Robust = workload.DefaultRobustConfig()
	w.Robust.Deadline = serveDeadline
	w.Robust.Capacity = 16
	// The workload gets its own copy of the generated schedule.
	w.SetSchedule(append([]sim.Time(nil), b.schedule...))
	if err := s.Launch(w, workload.Params{Threads: 8, Seed: b.seed}); err != nil {
		return nil, sp, fmt.Errorf("serve-faults launch: %w", err)
	}
	t2 := time.Now()
	sp.newKernel, sp.launch = t1.Sub(t0), t2.Sub(t1)
	return &serveRun{b: b, s: s, w: w}, sp, nil
}

func (r *serveRun) run(tr *tracer, root int) (*outcome, error) {
	s, b := r.s, r.b
	out := &outcome{sim: map[string]float64{}}
	for {
		from := s.Now()
		step := tr.begin("session.step", root, 0)
		t0 := time.Now()
		done, err := s.Step(b.epoch)
		d := time.Since(t0)
		tr.end(step)
		out.steps = append(out.steps, d)
		out.quarterHost[min(int(4*from/b.horizon), 3)] += d
		if err != nil {
			return nil, fmt.Errorf("serve-faults step: %w", err)
		}
		if done {
			break
		}
	}
	chk := tr.begin("bench.check", root, 0)
	defer tr.end(chk)
	for q := range out.quarterArr {
		lo := sim.Time(q) * b.horizon / 4
		hi := sim.Time(q+1) * b.horizon / 4
		out.quarterArr[q] = sort.Search(len(b.schedule), func(i int) bool { return b.schedule[i] >= hi }) -
			sort.Search(len(b.schedule), func(i int) bool { return b.schedule[i] >= lo })
	}

	exec := s.ExecTime()
	st := r.w.ServeStatsInto(nil, exec)
	var problems []string
	if err := s.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("session error: %v", err))
	}
	term := st.Completed + int(st.Shed+st.DeadlineExceeded+st.FailedFast)
	if st.Arrived != len(b.schedule) || st.InFlight != 0 || term+st.InFlight != st.Arrived {
		problems = append(problems, fmt.Sprintf("ledger: arrived %d (scheduled %d) != completed %d + shed %d + expired %d + failed-fast %d + in-flight %d",
			st.Arrived, len(b.schedule), st.Completed, st.Shed, st.DeadlineExceeded, st.FailedFast, st.InFlight))
	}
	k := s.Kernel()
	ks, ns, fs := k.Stats(), k.Net.Stats(), k.FailureStats()
	addKernel(out.sim, ks, ns, fs)
	out.sim["session.epochs"] = float64(s.Epochs())
	out.sim["serve.arrived"] = float64(st.Arrived)
	out.sim["serve.completed"] = float64(st.Completed)
	out.sim["serve.in_slo"] = float64(st.CompletedInSLO)
	out.sim["serve.shed"] = float64(st.Shed)
	out.sim["serve.expired"] = float64(st.DeadlineExceeded)
	out.sim["serve.failed_fast"] = float64(st.FailedFast)
	out.sim["serve.retried"] = float64(st.Retried)
	out.sim["serve.hedged"] = float64(st.Hedged)
	out.sim["serve.hedge_wins"] = float64(st.HedgeWins)
	out.sim["serve.wasted"] = float64(st.Wasted)
	out.sim["serve.breaker_opens"] = float64(st.BreakerOpens)
	if att := st.Arrived - int(st.Shed) + int(st.Retried+st.Hedged); att > 0 {
		out.sim["serve.attempt_yield"] = float64(st.Completed) / float64(att)
	}
	out.sim["sim_p99_ms"] = st.LatencyP99.Milliseconds()
	out.sim["slo_goodput_rps"] = st.SLOGoodputPerSec
	if st.Arrived > 0 {
		out.sim["sim_fail_pct"] = 100 * float64(st.Shed+st.DeadlineExceeded+st.FailedFast) / float64(st.Arrived)
	}
	out.simExec = exec.Seconds()

	d := newDigest()
	d.add("exec", exec)
	d.add("epochs", s.Epochs())
	digestKernel(d, "serve", ks, ns, fs)
	d.add("serve", *st)
	out.digest = d.sum()
	out.ops = st.Arrived
	out.keep = s
	return out, joinProblems(problems)
}
