package tcm

import (
	"math"
	"math/bits"
	"sort"

	"jessica2/internal/oal"
)

// Builder is the correlation-computing daemon: it ingests OAL records (or
// worker summaries) into per-object thread sets and maintains the N×N map
// online. Where the paper's literal daemon re-sorts all M object keys and
// re-accrues every pairwise cell on every Build/Peek (kept as the
// FullBuilder oracle in builder_full_test.go), Builder maintains the map
// continuously:
//
//   - each object's thread set is a dense []uint64 bitset (N is fixed at
//     construction), so the repeat-access hot path is one bit test and
//     membership iteration is word-wise, with the ids emerging already
//     sorted — no per-object sort, ever;
//   - when thread t first touches an object, the (t, existing) pair deltas
//     accrue immediately into a persistently-maintained N×N accumulator;
//   - when a re-log upgrades an object's weight (bytes > entry weight), the
//     difference re-accrues over the existing pair set;
//   - Build/Peek render the accumulator in O(N²) independent of M, and
//     PeekInto re-syncs a reused scratch map in O(dirty cells) — the epoch
//     snapshot path of closed-loop sessions;
//   - Reset clears the accumulator in one pass.
//
// Cells accumulate in scaled fixed-point int64 (fixedShift) and convert to
// float64 at read time, so the result is independent of accrual order —
// float addition is not associative, but integer addition is. For the
// integral byte weights the simulator logs (OAL entries carry int64 byte
// counts) the conversion is exact up to 2^(63-fixedShift) ≈ 2^51 bytes per
// add and 2^(53) scaled units ≈ 2^41 bytes ≈ 2 TB of correlated volume per
// thread pair, far beyond any simulated run — within that envelope the
// maps are bit-identical to the full rebuild (asserted by the property and
// fuzz equivalence tests, and by the builder-identity test that replays
// real Table II, Figure S and Figure CL streams). Fractional weights are
// quantized to 2^-fixedShift bytes; additions saturate at MaxInt64 instead
// of wrapping.
type Builder struct {
	n     int
	words int // bitset words per object: ceil(n/64)
	objs  map[int64]*incEntry
	cost  BuildCost

	// acc is the persistently-maintained N×N accumulator (both symmetric
	// mirrors, scaled fixed-point). livePairs tracks Σ_objects C(k,2) so a
	// charged Build reports the same cumulative simulated O(M·N²) charge
	// the full accrual pass realizes, in O(1).
	acc       []int64
	livePairs int64

	// pending holds the keys whose thread set crossed two members since
	// the last consuming VisitNewlyShared — the O(new) feed behind the
	// session's hot-object epoch snapshots.
	pending []int64

	// Dirty-cell tracking for O(dirty) PeekInto: peekDst is the scratch
	// map currently mirroring acc except at the canonical (upper-triangle)
	// cell indexes listed in dirty. allDirty falls back to a full render
	// when the list outgrows its usefulness.
	peekDst   *Map
	dirty     []int
	dirtyMark []uint64
	allDirty  bool

	// free recycles entries (and their bitsets) across windows, capped by
	// freePoolCap at Reset; keys/ts are iteration scratch.
	free []*incEntry
	keys []int64
	ts   []int32
}

type incEntry struct {
	bytes float64
	fixed int64 // bytes in fixed point, the accrued pair weight
	count int   // popcount of bits
	bits  []uint64
}

const (
	// fixedShift scales the fixed-point cell units: 2^-12 bytes of
	// resolution, 2^51 bytes of exact per-add headroom.
	fixedShift = 12
	fixedOne   = 1 << fixedShift
)

// toFixed quantizes a weight to fixed point, saturating instead of
// overflowing (weights are non-negative: a fresh entry's weight is 0 and
// only larger weights replace it, so NaN and negatives never upgrade).
func toFixed(bytes float64) int64 {
	if bytes >= float64(math.MaxInt64)/fixedOne {
		return math.MaxInt64
	}
	return int64(bytes*fixedOne + 0.5)
}

// toFloat converts an accumulated cell back to float64 bytes.
func toFloat(v int64) float64 { return float64(v) / fixedOne }

// satAdd adds a non-negative delta with saturation at MaxInt64.
func satAdd(a, d int64) int64 {
	if a > math.MaxInt64-d {
		return math.MaxInt64
	}
	return a + d
}

// hook, when non-nil, observes every Builder's input stream and every map
// it renders. Only export_test.go sets it: the builder-identity test
// replays a real run's records and summaries into the full-rebuild oracle
// and compares each map the run reads. Production leaves it nil, which
// costs one branch per record, summary, render or reset, never per entry.
var hook builderHook

type builderHook interface {
	record(b *Builder, r *oal.Record)
	summary(b *Builder, s *Summary)
	reset(b *Builder)
	// rendered sees each map Build (charged) or Peek/PeekInto returns.
	rendered(b *Builder, m *Map, charged bool)
}

// NewBuilder returns a daemon for n threads.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("tcm: negative dimension")
	}
	return &Builder{
		n:         n,
		words:     (n + 63) / 64,
		objs:      make(map[int64]*incEntry),
		acc:       make([]int64, n*n),
		dirtyMark: make([]uint64, (n*n+63)/64),
	}
}

// N returns the thread-count dimension.
func (b *Builder) N() int { return b.n }

// Ingest reorganizes one batch of records into the per-object state.
func (b *Builder) Ingest(batch *oal.Batch) {
	for _, r := range batch.Records {
		b.IngestRecord(r)
	}
}

// IngestRecord reorganizes one record.
func (b *Builder) IngestRecord(r *oal.Record) {
	if hook != nil {
		hook.record(b, r)
	}
	b.cost.Records++
	for _, e := range r.Entries {
		b.cost.Entries++
		b.AddAccess(r.Thread, int64(e.Obj), float64(e.Bytes))
	}
}

// AddAccess records that thread t accessed the keyed object with the given
// logged weight, maintaining the correlation map differentially: weight
// upgrades (bytes > entry weight, a re-log at a finer gap) re-accrue the
// difference over the object's existing pair set, and a first touch by t
// accrues the current weight over (t, existing). A repeat access at an
// unchanged weight — the overwhelmingly common case — is a single bit
// test. Malformed thread ids outside [0, n) are dropped (counted in
// DroppedEntries), exactly as in the full-rebuild oracle.
func (b *Builder) AddAccess(t int, key int64, bytes float64) {
	if t < 0 || t >= b.n {
		b.cost.DroppedEntries++
		return
	}
	oe := b.objs[key]
	if oe == nil {
		oe = b.newEntry()
		b.objs[key] = oe
	}
	if bytes > oe.bytes {
		b.upgrade(oe, bytes)
	}
	b.addThread(oe, key, t)
}

// newEntry pops the recycle pool or allocates a zeroed entry.
func (b *Builder) newEntry() *incEntry {
	if n := len(b.free); n > 0 {
		oe := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return oe
	}
	return &incEntry{bits: make([]uint64, b.words)}
}

// upgrade raises the entry weight, re-accruing the fixed-point difference
// over the existing pair set.
func (b *Builder) upgrade(oe *incEntry, bytes float64) {
	nf := toFixed(bytes)
	if d := nf - oe.fixed; d > 0 && oe.count >= 2 {
		ts := b.members(oe)
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				b.accrue(int(ts[i]), int(ts[j]), d)
			}
		}
	}
	oe.bytes, oe.fixed = bytes, nf
}

// members renders the entry's bitset into the shared ts scratch, ascending
// (word-wise iteration; the ids emerge already sorted).
func (b *Builder) members(oe *incEntry) []int32 {
	ts := b.ts[:0]
	for wi, w := range oe.bits {
		for w != 0 {
			ts = append(ts, int32(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	b.ts = ts
	return ts
}

// addThread inserts t into the entry's bitset, accruing the current weight
// against every existing member and maintaining the pending and simulated
// pair-charge bookkeeping.
func (b *Builder) addThread(oe *incEntry, key int64, t int) {
	w, bit := t>>6, uint64(1)<<uint(t&63)
	if oe.bits[w]&bit != 0 {
		return // repeat access: the hot path
	}
	if oe.count > 0 && oe.fixed > 0 {
		for wi, v := range oe.bits {
			for v != 0 {
				s := wi<<6 + bits.TrailingZeros64(v)
				v &= v - 1
				b.accrue(t, s, oe.fixed)
			}
		}
	}
	oe.bits[w] |= bit
	b.livePairs += int64(oe.count)
	oe.count++
	if oe.count == 2 {
		b.pending = append(b.pending, key)
	}
}

// accrue adds a fixed-point delta to the (i, j) cell pair and marks the
// canonical cell dirty for the next incremental PeekInto re-sync.
func (b *Builder) accrue(i, j int, d int64) {
	if i == j {
		return
	}
	ii, jj := i*b.n+j, j*b.n+i
	b.acc[ii] = satAdd(b.acc[ii], d)
	b.acc[jj] = satAdd(b.acc[jj], d)
	if b.allDirty {
		return
	}
	c := ii
	if jj < ii {
		c = jj
	}
	w, bit := c>>6, uint64(1)<<uint(c&63)
	if b.dirtyMark[w]&bit != 0 {
		return
	}
	b.dirtyMark[w] |= bit
	b.dirty = append(b.dirty, c)
	if len(b.dirty)*4 > len(b.acc) {
		// Past a quarter of the matrix, a full render beats cell-by-cell
		// re-sync; stop growing the list.
		b.allDirty = true
	}
}

// Build renders the maintained TCM and charges the cost ledger with the
// paper's full accrual pass — Objects = M and PairAdds += Σ C(k,2), the
// identical cumulative simulated charge the full accrual pass realizes — in
// O(N²) host work independent of M.
func (b *Builder) Build() (*Map, BuildCost) {
	m := NewMap(b.n)
	b.render(m)
	b.cost.Objects = len(b.objs)
	b.cost.PairAdds += b.livePairs
	if hook != nil {
		hook.rendered(b, m, true)
	}
	return m, b.cost
}

// Peek renders the same map Build would without touching the cost ledger:
// a live-snapshot read must leave the simulated analyzer's accounting
// exactly as a later charged Build would have found it.
func (b *Builder) Peek() *Map {
	m := NewMap(b.n)
	b.render(m)
	if hook != nil {
		hook.rendered(b, m, false)
	}
	return m
}

// PeekInto is Peek with caller-owned scratch. When dst is the same scratch
// the previous PeekInto returned, only the cells dirtied since then are
// re-converted — O(dirty), the closed-loop epoch steady state — otherwise
// the whole accumulator renders into dst (recycled via Reuse; nil
// allocates). The returned map aliases dst, is valid until the next
// PeekInto, and must not be written to by the caller (a foreign write would
// desynchronize the dirty-cell mirror).
func (b *Builder) PeekInto(dst *Map) *Map {
	if dst != nil && dst == b.peekDst && dst.n == b.n && !b.allDirty {
		for _, ci := range b.dirty {
			i, j := ci/b.n, ci%b.n
			v := toFloat(b.acc[ci])
			dst.cells[ci] = v
			dst.cells[j*b.n+i] = v
		}
		b.resetDirty()
	} else {
		dst = dst.Reuse(b.n)
		b.render(dst)
		b.resetDirty()
		b.peekDst = dst
	}
	if hook != nil {
		hook.rendered(b, dst, false)
	}
	return dst
}

// render converts the whole accumulator into dst (dst dimensions must
// already match).
func (b *Builder) render(dst *Map) {
	for i, v := range b.acc {
		dst.cells[i] = toFloat(v)
	}
}

// resetDirty clears the dirty-cell tracking after a re-sync.
func (b *Builder) resetDirty() {
	clear(b.dirtyMark)
	b.dirty = b.dirty[:0]
	b.allDirty = false
}

// DecayThreads scales every accumulated correlation involving the given
// threads by factor (clamped into [0, 1]) — the graceful-degradation hook
// the master's failure detector pulls when a node is declared dead: instead
// of freezing stale correlations at full weight, the lost threads'
// evidence is discounted so live threads dominate the next placement
// decision. The decay is deterministic (`int64(float64(v)*factor + 0.5)`
// per cell, applied to both symmetric mirrors); a pair whose BOTH threads
// are in the set decays twice (factor²), the intended stronger quarantine
// of entirely-dead evidence. Per-object thread sets and weights are left
// intact — future re-logs accrue at full weight, so a recovered node's
// threads rebuild their correlations naturally. Out-of-range ids are
// ignored. The scratch mirror is invalidated, so the next PeekInto is a
// full O(N²) render.
func (b *Builder) DecayThreads(threads []int, factor float64) {
	if factor < 0 || math.IsNaN(factor) {
		factor = 0
	}
	if factor >= 1 {
		return
	}
	decayed := false
	for _, t := range threads {
		if t < 0 || t >= b.n {
			continue
		}
		decayed = true
		for j := 0; j < b.n; j++ {
			ij, ji := t*b.n+j, j*b.n+t
			b.acc[ij] = int64(float64(b.acc[ij])*factor + 0.5)
			b.acc[ji] = int64(float64(b.acc[ji])*factor + 0.5)
		}
	}
	if decayed {
		b.allDirty = true
	}
}

// SeedMap pre-loads the accumulator with a prior run's correlation map —
// the profile-guided warm start: a policy planning against the seeded map
// sees the stored correlation structure from epoch 0 instead of relearning
// it. The map's cells quantize back into the fixed-point units they were
// accumulated in (exact for maps that originated from an accumulator), and
// accrue on top of whatever is already present. Seeding is prior knowledge,
// not measurement: livePairs and the cost ledger are untouched, so a later
// charged Build reports only the work the simulated analyzer really did.
// Per-object thread sets are untouched too — the seeded volume is
// pair-level evidence with no object identity, exactly like post-decay
// state. The scratch mirror is invalidated, so the next PeekInto is a full
// O(N²) render. Dimension mismatches are ignored (the session layer only
// seeds fingerprint-matched profiles).
func (b *Builder) SeedMap(m *Map) {
	if m == nil || m.n != b.n {
		return
	}
	seeded := false
	for i, v := range m.cells {
		if v == 0 {
			continue
		}
		b.acc[i] = satAdd(b.acc[i], toFixed(v))
		seeded = true
	}
	if seeded {
		b.allDirty = true
	}
}

// VisitNewlyShared streams the objects whose thread set crossed two members
// since the last consuming call, in ascending key order: key, current
// weight, and the ascending accessor ids (the threads slice is iteration
// scratch, valid only during the callback). With consume set, entries whose
// visit returns true are retired from the pending list — O(new) work per
// epoch; entries declined with false stay pending for the next call.
// Without consume the list is left untouched (an ad-hoc snapshot peek).
func (b *Builder) VisitNewlyShared(consume bool, visit func(key int64, bytes float64, threads []int32) bool) {
	if len(b.pending) == 0 {
		return
	}
	sort.Slice(b.pending, func(i, j int) bool { return b.pending[i] < b.pending[j] })
	if !consume {
		for _, k := range b.pending {
			visit(k, b.objs[k].bytes, b.members(b.objs[k]))
		}
		return
	}
	kept := b.pending[:0]
	for _, k := range b.pending {
		oe := b.objs[k]
		if !visit(k, oe.bytes, b.members(oe)) {
			kept = append(kept, k)
		}
	}
	b.pending = kept
}

// Summarize exports the builder's per-object state as a mergeable summary
// (sorted by key for determinism) — the worker-side half of the distributed
// reduction. The bitsets iterate in ascending id order, so no per-object
// sort is needed.
func (b *Builder) Summarize() *Summary {
	s := &Summary{Objs: make([]ObjSummary, 0, len(b.objs))}
	keys := b.keys[:0]
	for k := range b.objs {
		keys = append(keys, k)
	}
	b.keys = keys
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		oe := b.objs[k]
		s.Objs = append(s.Objs, ObjSummary{
			Key:     k,
			Bytes:   oe.bytes,
			Threads: append([]int32(nil), b.members(oe)...),
		})
	}
	return s
}

// IngestSummary merges a worker summary into the builder (the master-side
// half): the larger byte estimate wins — its delta re-accrued over the
// existing pair set — and thread sets union with malformed out-of-range ids
// dropped, matching AddAccess and the full-rebuild oracle's accounting.
func (b *Builder) IngestSummary(s *Summary) {
	if hook != nil {
		hook.summary(b, s)
	}
	for _, o := range s.Objs {
		oe := b.objs[o.Key]
		if oe == nil {
			oe = b.newEntry()
			b.objs[o.Key] = oe
		}
		if o.Bytes > oe.bytes {
			b.upgrade(oe, o.Bytes)
		}
		for _, t := range o.Threads {
			if t < 0 || int(t) >= b.n {
				b.cost.DroppedEntries++
				continue
			}
			b.addThread(oe, o.Key, int(t))
		}
		b.cost.Entries += len(o.Threads)
	}
}

// Merge unions another builder's state into b (in-process variant of the
// summary path, used by tests and by hierarchical reductions).
func (b *Builder) Merge(other *Builder) {
	b.IngestSummary(other.Summarize())
}

// Reset clears ingested state for the next profiling window in one pass:
// accumulator, pending list and simulated-charge counters zero, entries
// recycle into the capped pool.
func (b *Builder) Reset() {
	if hook != nil {
		hook.reset(b)
	}
	recycled := len(b.objs)
	for _, oe := range b.objs {
		oe.bytes, oe.fixed, oe.count = 0, 0, 0
		clear(oe.bits)
		b.free = append(b.free, oe)
	}
	clear(b.objs)
	if max := freePoolCap(recycled); len(b.free) > max {
		tail := b.free[max:]
		for i := range tail {
			tail[i] = nil // release the dropped entries to the GC
		}
		b.free = b.free[:max]
	}
	clear(b.acc)
	b.livePairs = 0
	b.pending = b.pending[:0]
	b.cost = BuildCost{}
	b.peekDst = nil // scratch maps no longer mirror the accumulator
	clear(b.dirtyMark)
	b.dirty = b.dirty[:0]
	b.allDirty = false
}
