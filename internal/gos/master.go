package gos

import (
	"jessica2/internal/heap"
	"jessica2/internal/oal"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// Master is the correlation collector + analyzer daemon on the master JVM
// (node 0). It ingests OAL batches, reorganizes them into per-object thread
// lists and constructs correlation maps on demand. Its CPU cost is tracked
// separately because the paper runs the analyzer on a dedicated machine
// ("so that total execution time is not affected").
type Master struct {
	k       *Kernel
	builder *tcm.Builder

	ingestedRecords int64
	ingestedEntries int64
	reorgTime       sim.Time
	buildTime       sim.Time

	// homeAff accumulates thread×home-node shared volume — the "home
	// effect" input the paper's §VI says thread migration decisions need
	// ("objects shared by a pair of threads are homed at neither node of
	// the threads"). homeAff[t][n] is the logged bytes of objects homed at
	// node n that thread t accessed.
	homeAff map[int]map[int]float64
}

func newMaster(k *Kernel) *Master {
	return &Master{k: k}
}

func (m *Master) ensureBuilder() *tcm.Builder {
	if m.builder == nil {
		m.builder = tcm.NewBuilder(len(m.k.threads))
	}
	return m.builder
}

// Ingest consumes a batch arriving over the network (or locally on node 0).
func (m *Master) Ingest(b *oal.Batch) {
	if b == nil {
		return
	}
	for _, r := range b.Records {
		m.IngestLocal(r)
	}
}

// IngestSummary merges a worker-side per-object summary (distributed-TCM
// mode). Merging deduplicated summaries is cheaper than reorganizing raw
// records, which is the point of the §VI extension.
func (m *Master) IngestSummary(s *tcm.Summary) {
	if s == nil {
		return
	}
	bl := m.ensureBuilder()
	bl.IngestSummary(s)
	entries := 0
	for _, o := range s.Objs {
		entries += len(o.Threads)
		m.ingestedEntries += int64(len(o.Threads))
		for _, th := range o.Threads {
			m.accrueHome(int(th), heap.ObjectID(o.Key), o.Bytes)
		}
	}
	m.ingestedRecords++
	m.reorgTime += sim.Time(entries) * m.k.Cfg.Costs.TCMPairCost // merge is cheap
}

// IngestPayload dispatches on the shipment kind.
func (m *Master) IngestPayload(p *oalPayload) {
	if p == nil {
		return
	}
	m.Ingest(p.batch)
	m.IngestSummary(p.sum)
}

// IngestLocal consumes one record without any network path (used when OAL
// transfer is disabled but accuracy studies still need the data). Ownership
// of the record transfers to the kernel: it is recycled into the record pool
// after ingestion and must not be used by the caller afterwards.
func (m *Master) IngestLocal(r *oal.Record) {
	bl := m.ensureBuilder()
	bl.IngestRecord(r)
	m.ingestedRecords++
	m.ingestedEntries += int64(len(r.Entries))
	m.reorgTime += sim.Time(len(r.Entries)) * m.k.Cfg.Costs.TCMReorgCostPerEntry
	for _, e := range r.Entries {
		m.accrueHome(r.Thread, e.Obj, float64(e.Bytes))
	}
	m.k.recycleRecord(r)
}

// accrueHome adds one logged access into the thread×home matrix.
func (m *Master) accrueHome(thread int, id heap.ObjectID, bytes float64) {
	o := m.k.Reg.Object(id)
	if o == nil {
		return
	}
	if m.homeAff == nil {
		m.homeAff = make(map[int]map[int]float64)
	}
	row := m.homeAff[thread]
	if row == nil {
		row = make(map[int]float64)
		m.homeAff[thread] = row
	}
	row[o.Home] += bytes
}

// HomeAffinity exports the thread×node shared-volume matrix for the given
// dimensions (threads × nodes).
func (m *Master) HomeAffinity(threads, nodes int) [][]float64 {
	out := make([][]float64, threads)
	for t := range out {
		out[t] = make([]float64, nodes)
		for n, v := range m.homeAff[t] {
			if n >= 0 && n < nodes {
				out[t][n] = v
			}
		}
	}
	return out
}

// widen copies mp into an n×n map when the builder was sized before all
// threads spawned; a map already wide enough passes through.
func widen(mp *tcm.Map, n int) *tcm.Map {
	if mp.N() >= n {
		return mp
	}
	wide := tcm.NewMap(n)
	for i := 0; i < mp.N(); i++ {
		for j := i + 1; j < mp.N(); j++ {
			wide.Set(i, j, mp.At(i, j))
		}
	}
	return wide
}

// Build constructs the TCM for n threads from everything ingested, charging
// analyzer CPU for the accrual pass. The charge is the paper's simulated
// O(M·N²) reorganize-and-accrue cost (cost.Objects and the cumulative
// cost.PairAdds). The builder maintains the map online, so its *host-side*
// Build is O(1), but the simulated analyzer the ledger models still pays
// for the full pass.
func (m *Master) Build(n int) (*tcm.Map, tcm.BuildCost) {
	bl := m.ensureBuilder()
	mp, cost := bl.Build()
	m.buildTime += sim.Time(cost.PairAdds)*m.k.Cfg.Costs.TCMPairCost +
		sim.Time(cost.Objects)*m.k.Cfg.Costs.TCMReorgCostPerEntry
	return widen(mp, n), cost
}

// Peek builds the TCM from everything ingested so far WITHOUT charging
// analyzer CPU: a live-snapshot read that leaves the master's accounting
// exactly as a later charged Build would have found it. Observing a paused
// run must not change it.
func (m *Master) Peek(n int) *tcm.Map {
	return widen(m.ensureBuilder().Peek(), n)
}

// PeekInto is Peek with caller-owned scratch: the map is rebuilt in place
// of dst (nil allocates) and stays valid until the next call with the same
// scratch. Sessions peek at every epoch boundary; recycling one map per
// session keeps live snapshots off the allocator's hot path. When the
// builder was sized before all threads spawned, widening still copies into
// a fresh map (the rare, cold path).
func (m *Master) PeekInto(dst *tcm.Map, n int) *tcm.Map {
	return widen(m.ensureBuilder().PeekInto(dst), n)
}

// VisitNewlyShared streams objects observed as shared by at least two
// threads (ascending key order: key, current logged weight, ascending
// accessor ids — the threads slice is scratch valid only during the
// callback). Callers MUST dedupe across calls themselves (the session
// keeps a hotSeen set): the builder narrows successive visits to the
// O(new) pending list — consume retires entries acknowledged with a true
// return, declined entries stay pending — but that narrowing is an
// optimization, not a delivery guarantee. Like Peek, it never charges
// simulated analyzer CPU.
func (m *Master) VisitNewlyShared(consume bool, visit func(key int64, bytes float64, threads []int32) bool) {
	m.ensureBuilder().VisitNewlyShared(consume, visit)
}

// DecayThreads scales the given threads' accumulated correlations by
// factor — the failure detector's graceful-degradation hook when their
// node's lease expires.
func (m *Master) DecayThreads(threads []int, factor float64) {
	m.ensureBuilder().DecayThreads(threads, factor)
}

// SeedMap pre-loads the analyzer's accumulator with a prior run's
// correlation map — the profile-guided warm start. Seeding is prior
// knowledge, not measurement: it charges no analyzer CPU and leaves the
// Build cost ledger untouched.
func (m *Master) SeedMap(mp *tcm.Map) {
	m.ensureBuilder().SeedMap(mp)
}

// ResetWindow clears ingested state for a fresh profiling window.
func (m *Master) ResetWindow() {
	if m.builder != nil {
		m.builder.Reset()
	}
}

// ComputeTime is the analyzer CPU consumed so far (reorg + accrual).
func (m *Master) ComputeTime() sim.Time { return m.reorgTime + m.buildTime }

// ReorgTime is the OAL-reorganization component of ComputeTime.
func (m *Master) ReorgTime() sim.Time { return m.reorgTime }

// BuildTime is the TCM-accrual component of ComputeTime.
func (m *Master) BuildTime() sim.Time { return m.buildTime }

// IngestedEntries reports how many OAL entries reached the daemon.
func (m *Master) IngestedEntries() int64 { return m.ingestedEntries }

// Summary exports the daemon's per-object state (input for home-migration
// advice and hierarchical reductions).
func (m *Master) Summary() *tcm.Summary { return m.ensureBuilder().Summarize() }
