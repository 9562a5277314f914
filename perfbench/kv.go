package main

import (
	"fmt"
	"time"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// kvEpoch is the closed-loop stepping period: short, so the epoch
// boundary (OAL flush, incremental TCM peek, snapshot, policy, actions)
// runs thousands of times per repetition.
const kvEpoch = 2 * sim.Millisecond

// kvBench is the closedloop-kv workload: Figure CL's KVMix under the
// phased scenario, full-rate sampling, RebalancePolicy at every epoch.
type kvBench struct {
	seed   uint64
	rounds int
	scen   *scenario.Scenario
	traced bool
}

func newKV(seed uint64, rounds int) (*kvBench, error) {
	scen, err := scenario.Preset("phased", 4, seed)
	if err != nil {
		return nil, fmt.Errorf("closedloop-kv scenario: %w", err)
	}
	return &kvBench{seed: seed, rounds: rounds, scen: scen}, nil
}

// kvRun is one set-up session, ready for its first Step.
type kvRun struct {
	s      *session.Session
	policy *timedPolicy
}

func (b *kvBench) setup() (instance, setupSplit, error) {
	var sp setupSplit
	t0 := time.Now()
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = 4
	kcfg.Tracking = gos.TrackingSampled
	s := session.New(session.Config{Kernel: kcfg, Scenario: b.scen, Epoch: kvEpoch})
	t1 := time.Now()
	w := workload.NewKVMix()
	w.Keys, w.ValueSize = 2048, 128
	w.Rounds, w.TxnsPerRound, w.OpsPerTxn = b.rounds, 24, 4
	w.HotSpan = 256
	if err := s.Launch(w, workload.Params{Threads: 8, Seed: b.seed}); err != nil {
		return nil, sp, fmt.Errorf("closedloop-kv launch: %w", err)
	}
	t2 := time.Now()
	if _, err := s.AttachProfiling(core.Config{Rate: sampling.FullRate}); err != nil {
		return nil, sp, fmt.Errorf("closedloop-kv attach: %w", err)
	}
	r := &kvRun{s: s, policy: &timedPolicy{inner: session.NewRebalancePolicy()}}
	// The timing wrapper is installed in every repetition; it reads the
	// clock only when a tracer is attached, and passes every call through.
	if err := s.SetPolicy(r.policy); err != nil {
		return nil, sp, fmt.Errorf("closedloop-kv policy: %w", err)
	}
	t3 := time.Now()
	sp.newKernel, sp.launch, sp.attach = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return r, sp, nil
}

func (r *kvRun) run(tr *tracer, root int) (*outcome, error) {
	s := r.s
	r.policy.tr = tr
	out := &outcome{sim: map[string]float64{}}
	for {
		step := tr.begin("session.step", root, 0)
		r.policy.step, r.policy.phase = step, tr.begin("session.advance", step, 0)
		t0 := time.Now()
		done, err := s.Step(kvEpoch)
		out.steps = append(out.steps, time.Since(t0))
		tr.end(r.policy.phase)
		tr.end(step)
		if err != nil {
			return nil, fmt.Errorf("closedloop-kv step: %w", err)
		}
		if done {
			break
		}
	}
	build := tr.begin("gos.tcm_build", root, 0)
	t0 := time.Now()
	m, cost := s.Kernel().TCM()
	out.finalBuild = time.Since(t0)
	tr.end(build)

	chk := tr.begin("bench.check", root, 0)
	defer tr.end(chk)
	var problems []string
	if err := s.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("session error: %v", err))
	}
	if m == nil {
		problems = append(problems, "final TCM missing")
	}
	if cost.DroppedEntries != 0 {
		problems = append(problems, fmt.Sprintf("TCM dropped %d entries", cost.DroppedEntries))
	}
	k := s.Kernel()
	ks, ns, fs := k.Stats(), k.Net.Stats(), k.FailureStats()
	addKernel(out.sim, ks, ns, fs)
	addBuildCost(out.sim, cost)
	out.sim["tcm.sim_compute_ms"] = k.Master().ComputeTime().Milliseconds()
	out.sim["session.epochs"] = float64(s.Epochs())
	acts := s.Actions()
	for _, a := range acts {
		switch a.Action.(type) {
		case session.MigrateThread:
			out.sim["session.actions.migrate"]++
		case session.RehomeObject:
			out.sim["session.actions.rehome"]++
		case session.SetSamplingRate:
			out.sim["session.actions.rate"]++
		}
	}
	out.simExec = s.ExecTime().Seconds()

	d := newDigest()
	d.add("exec", s.ExecTime())
	d.add("epochs", s.Epochs())
	digestKernel(d, "kv", ks, ns, fs)
	d.add("cost", cost)
	d.addMap("tcm", m)
	for _, a := range acts {
		d.add("action", fmt.Sprintf("%d@%v %v %q", a.Epoch, a.At, a.Action, a.Note))
	}
	out.digest = d.sum()
	out.ops = len(out.steps)
	out.keep = s
	return out, joinProblems(problems)
}

// timedPolicy wraps the installed policy to split each traced Step into
// Step entry → Observe entry (kernel advance, OAL flush, snapshot),
// Observe, and Observe return → Step return (action apply). It forwards
// every call unchanged, so the run it wraps is the run it measures.
type timedPolicy struct {
	inner session.Policy
	tr    *tracer
	// step is the open Step span; phase is its open child span, which
	// the harness closes when Step returns.
	step, phase int
}

func (p *timedPolicy) Name() string       { return p.inner.Name() }
func (p *timedPolicy) NeedsProfile() bool { return p.inner.NeedsProfile() }

func (p *timedPolicy) Observe(snap *session.Snapshot) []session.Action {
	p.tr.end(p.phase)
	obs := p.tr.begin("policy.observe", p.step, 0)
	acts := p.inner.Observe(snap)
	p.tr.end(obs)
	p.phase = p.tr.begin("session.apply", p.step, 0)
	return acts
}
