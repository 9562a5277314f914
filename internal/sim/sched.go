package sim

import (
	"fmt"
	"math/bits"
)

// schedQueue is the engine's two-level bucketed event scheduler: a
// calendar-queue ring of small per-bucket heaps covering the near horizon,
// backed by a single 4-ary min-heap for far timers. The simulator's event
// population is sharply bimodal — dense bursts of wakes and short sleeps
// within microseconds of the clock, plus a thin tail of long re-arm timers —
// so the ring absorbs almost every push and pop at O(log bucket) cost on a
// handful of events, while the overflow heap only churns when a far timer
// is scheduled or migrates into coverage.
//
// Ordering is exactly the 4-ary heap's: (at, seq) with FIFO tie-break (the
// property tests in sched_test.go assert pop-order equivalence with a plain
// eventPQ on random streams).
//
// The engine always runs the default geometry below. init takes any other
// bucket width and ring size so the tests can sweep them: wider buckets
// smear a busy instant across fewer, deeper heaps; a longer ring trades
// occupancy-scan memory for fewer far-timer migrations. The geometry-sweep
// benchmark in sched_geom_test.go measures the trade-off across
// dense/uniform/far loads.
//
// Invariants:
//   - every ring event e satisfies base <= e.at < horizon, where
//     horizon = base + span and base is the start of the cursor's bucket;
//   - every overflow event e satisfies e.at >= horizon;
//   - base never exceeds the engine clock: pop leaves base at the popped
//     event's bucket, peeking never mutates, and the engine never schedules
//     in the past — so a push always lands at or beyond base.
const (
	// defaultBucketBits sets the default bucket width: 1<<12 = 4096 ns
	// spans the engine's dense event cluster (per-access CPU charges and
	// protocol latencies are tens of ns to a few µs) without smearing one
	// busy instant across many buckets.
	defaultBucketBits = 12
	// defaultRingBuckets is the default ring size; with 4 µs buckets the
	// ring covers a ~1 ms horizon, beyond which timers wait in the
	// overflow heap.
	defaultRingBuckets = 256

	// bucketWidth and ringSpan describe the default geometry (kept as
	// constants for the scheduler tests' stream distributions).
	bucketWidth = Time(1) << defaultBucketBits
	ringSpan    = Time(defaultRingBuckets) << defaultBucketBits
)

type schedQueue struct {
	// Geometry, fixed at first use: bucket width 1<<bits ns, len(ring)
	// buckets (power of two, multiple of 64 so the occupancy bitmap is
	// whole words). A zero-value queue lazily adopts the defaults.
	bits uint
	mask int  // len(ring) - 1
	span Time // len(ring) << bits: ring coverage

	ring  []eventPQ
	occ   []uint64 // occupancy bitmap: bit i set iff ring[i] non-empty
	ringN int      // events currently in the ring
	n     int      // total events (ring + overflow)

	cursor  int  // bucket holding the earliest ring events
	base    Time // start time of the cursor bucket
	horizon Time // base + span: exclusive upper bound of ring coverage

	overflow eventPQ // far timers, at >= horizon
}

// init materializes the ring; zero arguments select the defaults.
func (q *schedQueue) init(bucketBits, buckets int) {
	if bucketBits == 0 {
		bucketBits = defaultBucketBits
	}
	if buckets == 0 {
		buckets = defaultRingBuckets
	}
	if bucketBits < 1 || bucketBits > 40 {
		panic(fmt.Sprintf("sim: bucket bits %d out of range [1, 40]", bucketBits))
	}
	if buckets < 64 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("sim: ring buckets %d must be a power of two >= 64", buckets))
	}
	// The coverage span buckets<<bits must fit in Time: an overflowed span
	// would pin the horizon at/below zero and route every event through
	// the overflow heap with no bucket ever draining it.
	if bucketBits+bits.Len(uint(buckets-1)) > 62 {
		panic(fmt.Sprintf("sim: geometry %d-bit buckets × %d ring overflows the coverage span", bucketBits, buckets))
	}
	q.bits = uint(bucketBits)
	q.mask = buckets - 1
	q.span = Time(buckets) << q.bits
	q.ring = make([]eventPQ, buckets)
	q.occ = make([]uint64, buckets/64)
	q.horizon = q.span // base starts at 0
}

func (q *schedQueue) size() int   { return q.n }
func (q *schedQueue) empty() bool { return q.n == 0 }

func (q *schedQueue) bucketIndex(at Time) int { return int(at>>q.bits) & q.mask }

func (q *schedQueue) push(e event) {
	if q.ring == nil {
		q.init(0, 0)
	}
	q.n++
	if e.at < q.horizon {
		q.pushRing(e)
		return
	}
	q.overflow.push(e)
}

func (q *schedQueue) pushRing(e event) {
	i := q.bucketIndex(e.at)
	q.ring[i].push(e)
	q.occ[i>>6] |= 1 << uint(i&63)
	q.ringN++
}

// nextOccupied returns the first non-empty bucket at or after `from` in ring
// order (wrapping), or -1 when the whole ring is empty.
func (q *schedQueue) nextOccupied(from int) int {
	occWords := len(q.occ)
	word, off := from>>6, uint(from&63)
	if b := q.occ[word] &^ (1<<off - 1); b != 0 {
		return word<<6 + bits.TrailingZeros64(b)
	}
	for i := 1; i < occWords; i++ {
		w := (word + i) & (occWords - 1)
		if b := q.occ[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	if b := q.occ[word] & (1<<off - 1); b != 0 {
		return word<<6 + bits.TrailingZeros64(b)
	}
	return -1
}

// nextAt reports the earliest event's time without mutating the queue (the
// engine peeks on every RunUntil step, possibly while paused — reshaping
// coverage here would let the coverage window slide past the paused clock
// and corrupt the mapping of later pushes). Callers check empty() first.
func (q *schedQueue) nextAt() Time {
	if q.ringN > 0 {
		// Ring events all precede the overflow (at < horizon <= overflow),
		// and ring order from the cursor is time order.
		return q.ring[q.nextOccupied(q.cursor)][0].at
	}
	return q.overflow[0].at
}

// drain migrates overflow timers that entered coverage into the ring.
func (q *schedQueue) drain() {
	for len(q.overflow) > 0 && q.overflow[0].at < q.horizon {
		q.pushRing(q.overflow.pop())
	}
}

// jump re-anchors an empty ring directly at the overflow's earliest timer,
// skipping the idle gap in O(1) instead of walking buckets.
func (q *schedQueue) jump() {
	at := q.overflow[0].at
	q.base = at &^ (Time(1)<<q.bits - 1)
	q.horizon = q.base + q.span
	q.cursor = q.bucketIndex(q.base)
	q.drain()
}

func (q *schedQueue) pop() event {
	if q.ringN == 0 {
		// Callers guarantee q.n > 0, so the overflow must hold the next
		// event; re-anchor coverage at it.
		q.jump()
	}
	for {
		if b := &q.ring[q.cursor]; len(*b) > 0 {
			e := b.pop()
			if len(*b) == 0 {
				q.occ[q.cursor>>6] &^= 1 << uint(q.cursor&63)
			}
			q.ringN--
			q.n--
			return e
		}
		// Advance coverage to the next occupied bucket — but never past the
		// point where the overflow's earliest timer would enter coverage,
		// or it would land in a bucket the cursor has already passed.
		var d int
		if idx := q.nextOccupied(q.cursor); idx >= 0 {
			d = (idx - q.cursor) & q.mask
		} else {
			q.jump()
			continue
		}
		if len(q.overflow) > 0 {
			if dOv := int((q.overflow[0].at-q.horizon)>>q.bits) + 1; dOv < d {
				d = dOv
			}
		}
		q.cursor = (q.cursor + d) & q.mask
		q.base += Time(d) << q.bits
		q.horizon += Time(d) << q.bits
		q.drain()
	}
}
