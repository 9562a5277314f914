package jessica2_test

import (
	"strings"
	"testing"

	"jessica2"
)

func quickSOR() *jessica2.SOR {
	s := jessica2.NewSOR()
	s.RowsN, s.Cols, s.Iters = 128, 128, 2
	return s
}

// fullRate is the profiling config of the one-shot API tests.
var fullRate = &jessica2.ProfileConfig{Rate: jessica2.FullRate}

// runOnce launches w on a fresh session, attaches prof unless it is nil,
// and runs the session to completion as one epoch.
func runOnce(t *testing.T, cfg jessica2.Config, w jessica2.Workload, p jessica2.Params, prof *jessica2.ProfileConfig) *jessica2.Report {
	t.Helper()
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(w, p); err != nil {
		t.Fatal(err)
	}
	if prof != nil {
		if _, err := sess.AttachProfiling(*prof); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSystemEndToEnd(t *testing.T) {
	rep := runOnce(t, jessica2.DefaultConfig(), quickSOR(), jessica2.Params{Threads: 8, Seed: 1}, fullRate)
	if rep.ExecTime() <= 0 {
		t.Fatal("no execution time")
	}
	m := rep.TCM()
	if m.N() != 8 || m.Total() == 0 {
		t.Fatal("TCM missing or empty")
	}
	if rep.OALBytes() <= 0 || rep.GOSBytes() <= 0 {
		t.Fatal("traffic accounting missing")
	}
	if !strings.Contains(rep.String(), "execution time") {
		t.Fatal("report rendering broken")
	}
}

// TestConfigRejectsInvalidScenario: an invalid scenario spec handed to the
// public Config wiring surfaces as a sticky session error at construction,
// before anything runs.
func TestConfigRejectsInvalidScenario(t *testing.T) {
	bad := map[string]*jessica2.Scenario{
		"flush-loss-mass": {FlushLoss: &jessica2.ScenarioFlushLoss{DropProb: 0.8, DupProb: 0.8}},
		"restart-before-crash": {Crashes: []jessica2.ScenarioCrash{
			{Node: 1, At: 200 * jessica2.Millisecond, Restart: 100 * jessica2.Millisecond}}},
		"partition-empty-group": {Partitions: []jessica2.ScenarioPartition{
			{At: jessica2.Millisecond, Duration: jessica2.Millisecond}}},
		"arrivals-zero-rate": {Arrivals: &jessica2.Arrivals{Kind: jessica2.ArrivePoisson, Horizon: jessica2.Second}},
	}
	for name, sc := range bad {
		cfg := jessica2.DefaultConfig()
		cfg.Scenario = sc
		s := jessica2.NewSession(cfg)
		if s.Err() == nil {
			t.Errorf("%s: invalid scenario accepted by NewSession", name)
		}
	}
}

func TestPlacementPlanningAPI(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Nodes = 4
	syn := jessica2.NewSynthetic()
	syn.Intervals = 4
	m := runOnce(t, cfg, syn, jessica2.Params{Threads: 8, Seed: 2}, fullRate).TCM()
	cur := jessica2.BlockedPlacement(8, 4)
	next, _ := jessica2.PlanPlacement(m, cur, 4)
	if jessica2.CrossVolume(m, next) > jessica2.CrossVolume(m, cur) {
		t.Fatal("plan worsened placement")
	}
}

func TestDistanceHelpers(t *testing.T) {
	m := runOnce(t, jessica2.DefaultConfig(), quickSOR(), jessica2.Params{Threads: 4, Seed: 3}, fullRate).TCM()
	if jessica2.DistanceABS(m, m) != 0 || jessica2.DistanceEUC(m, m) != 0 {
		t.Fatal("self distance nonzero")
	}
	if jessica2.Accuracy(0.03) != 0.97 {
		t.Fatal("accuracy helper wrong")
	}
}

func TestCustomWorkloadViaPublicAPI(t *testing.T) {
	w := &chainWorkload{records: 64, rounds: 3}
	rep := runOnce(t, jessica2.DefaultConfig(), w, jessica2.Params{Threads: 2, Seed: 4}, fullRate)
	if rep.KernelStats().Intervals == 0 {
		t.Fatal("custom workload produced no intervals")
	}
}

// chainWorkload is a minimal user-defined workload exercising allocation,
// stack frames, locks and barriers through the public aliases.
type chainWorkload struct {
	records, rounds int
}

func (w *chainWorkload) Name() string { return "chain" }

func (w *chainWorkload) Characteristics() jessica2.Characteristics {
	return jessica2.Characteristics{Name: "chain", DataSet: "tiny", Rounds: w.rounds,
		Granularity: "Fine", ObjectSize: "64 bytes"}
}

func (w *chainWorkload) Launch(k *jessica2.Kernel, p jessica2.Params) {
	cls := k.Reg.DefineClass("Chain", 64, 1)
	m := &jessica2.Method{Name: "chain.run"}
	shared := make([]*jessica2.Object, 0, w.records)
	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		k.SpawnThread(tid%k.NumNodes(), "chain", func(t *jessica2.Thread) {
			f := t.Stack.Push(m, 1)
			if tid == 0 {
				for i := 0; i < w.records; i++ {
					o := t.Alloc(cls)
					t.Write(o)
					shared = append(shared, o)
				}
				f.SetRef(0, shared[0])
			}
			t.Barrier(0, p.Threads)
			for r := 0; r < w.rounds; r++ {
				t.Acquire(9)
				for _, o := range shared {
					t.Read(o)
				}
				t.Release(9)
				t.Barrier(0, p.Threads)
			}
			t.Stack.Pop()
		})
	}
}

func TestMigrationEngineAPI(t *testing.T) {
	sess := jessica2.NewSession(jessica2.DefaultConfig())
	eng := jessica2.NewMigrationEngine(sess)
	cls := sess.Kernel().Reg.DefineClass("Obj", 64, 0)
	var out jessica2.MigrationOutcome
	sess.Kernel().SpawnThread(0, "m", func(t *jessica2.Thread) {
		o := t.Alloc(cls)
		t.Write(o)
		out = eng.MigrateSelf(t, 1, nil)
	})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if out.From != 0 || out.To != 1 || out.ContextBytes <= 0 {
		t.Fatalf("outcome: %+v", out)
	}
}
