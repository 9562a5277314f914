package workload

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"jessica2/internal/sim"
)

func TestServePercentileNearestRank(t *testing.T) {
	lat := make([]sim.Time, 100)
	for i := range lat {
		lat[i] = sim.Time(i+1) * sim.Microsecond
	}
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0.50, 50 * sim.Microsecond},
		{0.95, 95 * sim.Microsecond},
		{0.99, 99 * sim.Microsecond},
		{1.00, 100 * sim.Microsecond},
	}
	for _, c := range cases {
		if got := percentile(lat, c.q); got != c.want {
			t.Errorf("percentile(1..100us, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	one := []sim.Time{7 * sim.Microsecond}
	if got := percentile(one, 0.99); got != one[0] {
		t.Errorf("percentile(single, 0.99) = %v, want %v", got, one[0])
	}
}

// TestServeStatsIntoMidRun checks the mid-run view: arrivals counted by
// schedule position, completions by recorded latencies, in-flight the
// difference — the numbers the epoch snapshot surfaces while requests are
// still queued.
func TestServeStatsIntoMidRun(t *testing.T) {
	w := NewServeMix()
	w.SetSchedule([]sim.Time{
		1 * sim.Millisecond, 2 * sim.Millisecond,
		3 * sim.Millisecond, 10 * sim.Millisecond,
	})
	w.state.reset(4)
	w.state.record(100 * sim.Microsecond)
	w.state.record(300 * sim.Microsecond)

	st := w.ServeStatsInto(nil, 5*sim.Millisecond)
	if st.Arrived != 3 || st.Completed != 2 || st.InFlight != 1 {
		t.Fatalf("mid-run stats = arrived %d done %d inflight %d, want 3/2/1",
			st.Arrived, st.Completed, st.InFlight)
	}
	if st.LatencyP50 != 100*sim.Microsecond || st.LatencyMax != 300*sim.Microsecond {
		t.Fatalf("mid-run latency p50 %v max %v", st.LatencyP50, st.LatencyMax)
	}
	if st.GoodputPerSec != 400 { // 2 completions in 5 simulated ms
		t.Fatalf("goodput = %v, want 400/s", st.GoodputPerSec)
	}

	// Scratch reuse: a second fill into the same dst must not allocate a
	// fresh view or disturb the numbers.
	again := w.ServeStatsInto(st, 5*sim.Millisecond)
	if again != st || again.Completed != 2 {
		t.Fatal("ServeStatsInto did not reuse dst")
	}
}

// TestServeLedgerMatchesSortOracle checks the incrementally sorted latency
// ledger against a sort from scratch. A seeded stream with duplicates,
// zeros and negatives (clamped to 0) is recorded in batches of 0..100;
// between batches each reader in turn is the first to fold the new tail
// in, and every reader must agree with the oracle. A reset followed by new
// records, and a first read over a wholly unsorted ledger (the static
// path), are covered too.
func TestServeLedgerMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 14))
	w := NewServeMix()
	w.SetSchedule(robustSchedule(8, 0, sim.Microsecond))
	var all []sim.Time
	next := func() sim.Time {
		switch rng.IntN(8) {
		case 0:
			return 0
		case 1:
			return -sim.Time(rng.IntN(1000))
		case 2:
			if len(all) > 0 {
				return all[rng.IntN(len(all))]
			}
		}
		return sim.Time(rng.IntN(5000)) * sim.Microsecond
	}
	recordBatch := func(n int) {
		for range n {
			lat := next()
			w.state.record(lat)
			all = append(all, max(lat, 0))
		}
	}
	check := func(step string, first int) {
		t.Helper()
		want := slices.Sorted(slices.Values(all))
		readers := []func(){
			func() {
				if got := w.state.sorted(); !slices.Equal(got, want) {
					t.Fatalf("%s: sorted() diverges from the oracle (%d entries)", step, len(want))
				}
			},
			func() {
				for _, q := range []float64{0.5, 0.95, 0.99} {
					if got, exp := percentile(w.state.sorted(), q), percentile(want, q); got != exp {
						t.Fatalf("%s: percentile(q=%v) = %v, oracle %v", step, q, got, exp)
					}
				}
			},
			func() {
				st := w.ServeStatsInto(nil, sim.Second)
				if st.Completed != len(want) ||
					st.LatencyP50 != percentile(want, 0.50) ||
					st.LatencyP95 != percentile(want, 0.95) ||
					st.LatencyP99 != percentile(want, 0.99) {
					t.Fatalf("%s: ServeStatsInto done %d p50/95/99 %v/%v/%v, oracle %d %v/%v/%v", step,
						st.Completed, st.LatencyP50, st.LatencyP95, st.LatencyP99,
						len(want), percentile(want, 0.50), percentile(want, 0.95), percentile(want, 0.99))
				}
			},
		}
		for i := range readers {
			readers[(first+i)%len(readers)]()
		}
	}

	for round := range 2 {
		w.state.reset(0)
		all = all[:0]
		for batch := range 60 {
			recordBatch(rng.IntN(101))
			check(fmt.Sprintf("round %d batch %d", round, batch), batch)
		}
	}
	w.state.reset(0)
	all = all[:0]
	recordBatch(500)
	check("first read", 0)
}

// TestServeLedgerSortedDoesNotAllocate pins the steady state of the hedge
// re-estimate: once the merge buffer has grown to the batch size, folding
// a batch into the ledger allocates nothing.
func TestServeLedgerSortedDoesNotAllocate(t *testing.T) {
	const batch = 32
	rng := rand.New(rand.NewPCG(3, 32))
	var st serveState
	st.reset(200 * batch)
	fold := func() {
		for range batch {
			st.record(sim.Time(rng.IntN(1 << 20)))
		}
		st.sorted()
	}
	fold()
	fold() // the second fold merges, growing scratch to the batch size
	if allocs := testing.AllocsPerRun(100, fold); allocs != 0 {
		t.Fatalf("sorted() allocates %v times per batch of %d", allocs, batch)
	}
	if !slices.IsSorted(st.latencies) {
		t.Fatal("ledger out of order after the folds")
	}
}
