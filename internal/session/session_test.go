package session

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// TestPartialCostsComposeWithDefaults checks that a cost model overriding
// one field runs exactly like the calibrated defaults with that one field
// overridden: the other twelve costs must not silently drop to zero.
func TestPartialCostsComposeWithDefaults(t *testing.T) {
	run := func(costs gos.CostModel) (sim.Time, gos.KernelStats) {
		s := New(Config{Kernel: gos.Config{Nodes: 4, Costs: costs}})
		w := workload.NewSOR()
		w.RowsN, w.Cols = 128, 128
		if err := s.Launch(w, workload.Params{Threads: 4, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecTime(), rep.KernelStats()
	}
	full := gos.DefaultCosts()
	full.FaultCPUCost = 3 * sim.Millisecond
	gotExec, gotStats := run(gos.CostModel{FaultCPUCost: full.FaultCPUCost})
	wantExec, wantStats := run(full)
	if gotExec != wantExec || gotStats != wantStats {
		t.Fatalf("partial costs: exec %v, stats %+v\nwant exec %v, stats %+v", gotExec, gotStats, wantExec, wantStats)
	}
}
