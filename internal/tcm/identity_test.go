package tcm_test

import (
	"testing"

	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/tcm"
)

// identityScale keeps the replayed runs small enough for the race job.
const identityScale = experiments.Scale(32)

// TestBuilderIdentityOnExperimentStreams replays real experiment streams
// through the FullBuilder oracle: every record and summary a Builder
// ingests is mirrored into its twin, and every map the run reads (each
// epoch-boundary peek, each charged build) must be bit-equal to the
// oracle's, with an equal cost ledger. The streams are Table II as it
// regenerates, Table II's apps on four nodes with central and distributed
// (worker-summary) reduction so the maps are non-trivial, Figure S's
// scenario sweep, and the Figure CL KVMix probe with its 2 ms epoch
// boundaries.
func TestBuilderIdentityOnExperimentStreams(t *testing.T) {
	checks, stop := tcm.MirrorBuilders(t.Errorf)
	defer stop()

	experiments.Table2(identityScale, nil)
	for _, a := range experiments.Apps {
		for _, distributed := range []bool{false, true} {
			experiments.Run(experiments.Spec{App: a, Scale: identityScale, Nodes: 4, Threads: 4,
				Tracking: gos.TrackingSampled, Rate: 4, TransferOALs: true, DistributedTCM: distributed})
		}
	}
	experiments.FigS(identityScale, nil)
	afterTables := checks()
	if afterTables == 0 {
		t.Fatal("the table and Figure S runs rendered no map to compare")
	}

	sess, _ := experiments.ClosedLoopProbe(identityScale, "kv")
	if sess.Epochs() == 0 || checks()-afterTables < sess.Epochs() {
		t.Fatalf("probe compared %d maps over %d epochs, want one per boundary", checks()-afterTables, sess.Epochs())
	}
	// The end of the run: one charged build over the whole stream.
	k := sess.Kernel()
	k.Master().Build(k.NumThreads())
	t.Logf("compared %d maps (%d before the probe)", checks(), afterTables)
}

// tcmPeeker is the builder surface BenchmarkTCMIncremental drives, so one
// binary measures Builder against the full-rebuild oracle head to head.
type tcmPeeker interface {
	AddAccess(t int, key int64, bytes float64)
	PeekInto(dst *tcm.Map) *tcm.Map
}

// BenchmarkTCMIncremental measures the epoch-snapshot hot path — PeekInto
// at steady state — on realistic daemon populations: the per-object state a
// finished closed-loop KVMix / Synthetic-zipf probe ingested. Each
// iteration models one boundary: a repeat access (the overwhelmingly common
// per-epoch delta) followed by a reused-scratch peek. The full builder
// re-sorts all M objects and re-accrues every pair per peek; Builder
// re-syncs only dirtied cells.
func BenchmarkTCMIncremental(b *testing.B) {
	for _, load := range []struct{ name, app string }{
		{"KVMix", "kv"},
		{"Synthetic-zipf", "zipf"},
	} {
		sess, _ := experiments.ClosedLoopProbe(experiments.Scale(8), load.app)
		sum := sess.Kernel().Master().Summary()
		n := sess.Kernel().NumThreads()
		if sum.NumObjs() == 0 {
			b.Fatalf("%s probe ingested no objects", load.name)
		}
		variants := []struct {
			name string
			make func() tcmPeeker
		}{
			{"full", func() tcmPeeker {
				bl := tcm.NewFullBuilder(n)
				bl.IngestSummary(sum)
				return bl
			}},
			{"incremental", func() tcmPeeker {
				bl := tcm.NewBuilder(n)
				bl.IngestSummary(sum)
				return bl
			}},
		}
		for _, v := range variants {
			b.Run(load.name+"/"+v.name+"/peekinto", func(b *testing.B) {
				bl := v.make()
				scratch := bl.PeekInto(nil)
				b.ReportMetric(float64(sum.NumObjs()), "objects")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := sum.Objs[i%len(sum.Objs)]
					bl.AddAccess(int(o.Threads[0]), o.Key, o.Bytes)
					scratch = bl.PeekInto(scratch)
				}
			})
		}
	}
}
