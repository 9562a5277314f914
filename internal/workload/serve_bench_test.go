package workload_test

import (
	"fmt"
	"runtime"
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// BenchmarkServeThroughput times the robust serve request lifecycle end to
// end: a ServeMix with DefaultRobustConfig under burst arrivals on a
// 4-node kernel with the failure detector on, from kernel construction to
// the final stats read. It runs at two horizons, 1× and 4×, so host cost
// per request shows whether it stays flat as the run (and the latency
// ledger) grows.
func BenchmarkServeThroughput(b *testing.B) {
	const base = 2 * sim.Second
	for _, scale := range []sim.Time{1, 4} {
		horizon := scale * base
		arr := &scenario.Arrivals{
			Kind:        scenario.ArriveBurst,
			Rate:        1500,
			Horizon:     horizon,
			BurstEvery:  horizon / 4,
			BurstLen:    horizon / 16,
			BurstFactor: 4,
		}
		if err := arr.Validate(); err != nil {
			b.Fatal(err)
		}
		sched := arr.Schedule(1)
		b.Run(fmt.Sprintf("horizon=%dx", scale), func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc0 := ms.TotalAlloc
			iters := 0
			for b.Loop() {
				cfg := gos.DefaultConfig()
				cfg.Nodes = 4
				cfg.Tracking = gos.TrackingOff
				rc := workload.DefaultRobustConfig()
				// Leases expire well inside the deadline, so breakers open
				// while stranded requests can still be rescued.
				hb := rc.Deadline / 5
				cfg.Failure = &gos.FailureConfig{
					HeartbeatInterval: hb,
					LeaseTimeout:      3 * hb,
					SweepInterval:     hb,
					FlushTimeout:      4 * hb,
					FlushBackoff:      hb,
					MaxFlushBackoff:   16 * hb,
					MaxFlushRetries:   4,
				}
				k := gos.NewKernel(cfg)
				w := workload.NewServeMix()
				w.Robust = rc
				w.SetSchedule(append([]sim.Time(nil), sched...))
				w.Launch(k, workload.Params{Threads: 8, Seed: 1})
				st := w.ServeStatsInto(nil, k.Run())
				if st.Arrived != len(sched) || st.InFlight != 0 || st.Completed == 0 {
					b.Fatalf("serve run did not drain: %v", st)
				}
				iters++
			}
			runtime.ReadMemStats(&ms)
			reqs := float64(iters * len(sched))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "host-ns/req")
			b.ReportMetric(reqs/b.Elapsed().Seconds(), "req/host-s")
			b.ReportMetric(float64(ms.TotalAlloc-alloc0)/reqs, "B/req")
		})
	}
}
