package jessica2_test

import (
	"fmt"
	"strings"
	"testing"

	"jessica2"
)

// goldenCase is one workload configuration for the determinism suite, kept
// small enough that every case runs in well under a second.
type goldenCase struct {
	name string
	make func() jessica2.Workload
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"SOR", func() jessica2.Workload {
			s := jessica2.NewSOR()
			s.RowsN, s.Cols, s.Iters = 96, 96, 2
			return s
		}},
		{"BarnesHut", func() jessica2.Workload {
			b := jessica2.NewBarnesHut()
			b.NBodies, b.Rounds = 192, 2
			return b
		}},
		{"WaterSpatial", func() jessica2.Workload {
			w := jessica2.NewWaterSpatial()
			w.NMol, w.Rounds = 64, 2
			w.PairCost = 1 * jessica2.Microsecond
			return w
		}},
		{"Synthetic", func() jessica2.Workload {
			s := jessica2.NewSynthetic()
			s.Intervals, s.AccessesPerInterval = 3, 256
			return s
		}},
		{"LU", func() jessica2.Workload {
			l := jessica2.NewLUSmall()
			l.N = 64
			return l
		}},
		{"KVMix", func() jessica2.Workload {
			k := jessica2.NewKVMix()
			k.Keys, k.Rounds, k.TxnsPerRound = 256, 4, 16
			return k
		}},
	}
}

// goldenConfig is the golden suite's 4-node cluster, optionally perturbed.
func goldenConfig(scen *jessica2.Scenario) jessica2.Config {
	cfg := jessica2.DefaultConfig()
	cfg.Nodes = 4
	cfg.Scenario = scen
	return cfg
}

// goldenSession launches one case (6 threads) with profiling at 4X.
func goldenSession(t *testing.T, cfg jessica2.Config, c goldenCase, seed uint64) (*jessica2.Session, *jessica2.Profiler) {
	t.Helper()
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(c.make(), jessica2.Params{Threads: 6, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	prof, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sess, prof
}

// stepNop installs the passive NopPolicy and steps the session to
// completion in 10 ms epochs, returning the report.
func stepNop(t *testing.T, sess *jessica2.Session) *jessica2.Report {
	t.Helper()
	if err := sess.SetPolicy(jessica2.NopPolicy{}); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := sess.Step(10 * jessica2.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	rep, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// renderTrace renders every externally observable result of a finished
// run into a single string: the report, the kernel and network counters,
// the correlation map, and the adaptive-free profiling state. Any
// nondeterminism anywhere in the stack shows up as a byte difference.
func renderTrace(rep *jessica2.Report, prof *jessica2.Profiler) string {
	var sb strings.Builder
	sb.WriteString(rep.String())
	fmt.Fprintf(&sb, "kernel: %+v\n", rep.KernelStats())
	fmt.Fprintf(&sb, "net: %v", rep.NetworkStats())
	fmt.Fprintf(&sb, "oal=%d gos=%d\n", rep.OALBytes(), rep.GOSBytes())
	sb.WriteString(rep.TCM().String())
	fmt.Fprintf(&sb, "stackcpu=%v\n", prof.StackCPU())
	return sb.String()
}

// goldenTrace runs one case to completion as a single one-shot Session.Run
// and renders it.
func goldenTrace(t *testing.T, c goldenCase, scen *jessica2.Scenario, seed uint64) string {
	t.Helper()
	sess, prof := goldenSession(t, goldenConfig(scen), c, seed)
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	return renderTrace(rep, prof)
}

// sessionTrace renders the same observables as goldenTrace, but drives the
// run through epoch stepping with the passive NopPolicy installed: the
// closed-loop machinery must be invisible when the policy never acts.
func sessionTrace(t *testing.T, c goldenCase, scen *jessica2.Scenario, seed uint64) string {
	t.Helper()
	sess, prof := goldenSession(t, goldenConfig(scen), c, seed)
	return renderTrace(stepNop(t, sess), prof)
}

// TestSessionNopGoldenIdentity: a Session stepped in epochs under NopPolicy
// must produce byte-identical reports to a one-shot Session.Run on the same
// seed — with and without a perturbation scenario.
func TestSessionNopGoldenIdentity(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got, want := sessionTrace(t, c, nil, 42), goldenTrace(t, c, nil, 42); got != want {
				t.Fatalf("epoch-stepped NopPolicy session diverged from one-shot Run:\n--- stepped\n%s\n--- one-shot\n%s", got, want)
			}
			if got, want := sessionTrace(t, c, stormScenario(t), 42), goldenTrace(t, c, stormScenario(t), 42); got != want {
				t.Fatalf("perturbed epoch-stepped NopPolicy session diverged from one-shot Run:\n--- stepped\n%s\n--- one-shot\n%s", got, want)
			}
		})
	}
}

// stormScenario builds the all-kinds perturbation schedule; a fresh
// instance per run ensures no state (e.g. the jitter stream) leaks between
// repeats.
func stormScenario(t *testing.T) *jessica2.Scenario {
	t.Helper()
	sc, err := jessica2.ScenarioPreset("storm", 4, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestGoldenTraceDeterminism: every workload, run twice with the same seed,
// must produce byte-identical reports — and again under a full perturbation
// scenario (guarding the scenario engine's hook points), and the perturbed
// trace must differ from the unperturbed one (the hooks actually fire).
func TestGoldenTraceDeterminism(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			base1 := goldenTrace(t, c, nil, 42)
			base2 := goldenTrace(t, c, nil, 42)
			if base1 != base2 {
				t.Fatalf("unperturbed same-seed runs diverged:\n--- run 1\n%s\n--- run 2\n%s", base1, base2)
			}

			pert1 := goldenTrace(t, c, stormScenario(t), 42)
			pert2 := goldenTrace(t, c, stormScenario(t), 42)
			if pert1 != pert2 {
				t.Fatalf("perturbed same-seed runs diverged:\n--- run 1\n%s\n--- run 2\n%s", pert1, pert2)
			}

			if base1 == pert1 {
				t.Error("storm scenario left the trace unchanged — hook points not reached")
			}
		})
	}
}

// TestGoldenTraceSeedSensitivity: different seeds must not collide (a
// trivially constant trace would pass the determinism check).
func TestGoldenTraceSeedSensitivity(t *testing.T) {
	for _, c := range goldenCases() {
		if c.name != "KVMix" { // fully seed-driven accesses
			continue
		}
		if goldenTrace(t, c, nil, 1) == goldenTrace(t, c, nil, 2) {
			t.Error("different seeds produced identical traces")
		}
		return
	}
	t.Fatal("KVMix golden case missing")
}
