package tcm

import (
	"fmt"
	"testing"
)

// TestFreePoolCapAfterStormWindow is the pool-growth regression test: a
// storm window that ingests a huge object population must not permanently
// pin its peak entry memory — within one subsequent small window the
// recycle pool must shrink to the small window's working set. Builder and
// the FullBuilder oracle share the freePoolCap policy.
func TestFreePoolCapAfterStormWindow(t *testing.T) {
	const storm, small = 20000, 50
	t.Run("incremental", func(t *testing.T) {
		b := NewBuilder(4)
		for o := int64(0); o < storm; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		if len(b.free) != storm {
			t.Fatalf("after storm reset: pool %d, want %d", len(b.free), storm)
		}
		for o := int64(0); o < small; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		if max := freePoolCap(small); len(b.free) > max {
			t.Fatalf("after small-window reset: pool %d, want <= %d", len(b.free), max)
		}
		// The trimmed tail must not retain entry pointers.
		for i, e := range b.free[:cap(b.free)] {
			if i >= len(b.free) && e != nil {
				t.Fatalf("trimmed pool slot %d still pins an entry", i)
			}
		}
	})
	t.Run("full", func(t *testing.T) {
		b := NewFullBuilder(4)
		for o := int64(0); o < storm; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		for o := int64(0); o < small; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		if max := freePoolCap(small); len(b.free) > max {
			t.Fatalf("after small-window reset: pool %d, want <= %d", len(b.free), max)
		}
		for i, e := range b.free[:cap(b.free)] {
			if i >= len(b.free) && e != nil {
				t.Fatalf("trimmed pool slot %d still pins an entry", i)
			}
		}
	})
}

// TestPeekIntoDirtyPath pins the O(dirty) re-sync: successive PeekInto
// calls on the same scratch must take the incremental path (same pointer,
// no reallocation) and still be bit-identical to a fresh full render after
// every kind of mutation — new pairs, weight upgrades, member joins,
// resets and dirty-list overflow into the allDirty fallback.
func TestPeekIntoDirtyPath(t *testing.T) {
	const n = 8
	b := NewBuilder(n)
	rng := equivRand(0xd1e7)
	dst := b.PeekInto(nil)
	check := func(tag string) {
		t.Helper()
		got := b.PeekInto(dst)
		if got != dst {
			t.Fatalf("%s: PeekInto reallocated the scratch", tag)
		}
		assertMapsBitEqual(t, tag, got, b.Peek())
	}
	check("empty")
	b.AddAccess(0, 1, 100)
	b.AddAccess(1, 1, 100)
	check("first pair")
	check("no change")     // zero dirty cells: must still be correct
	b.AddAccess(2, 1, 250) // join + upgrade in one access
	check("join and upgrade")
	for op := 0; op < 3000; op++ {
		b.AddAccess(int(rng.next()%n), int64(rng.next()%64), float64(rng.next()%4096))
		if op%97 == 0 {
			check(fmt.Sprintf("random op %d", op))
		}
	}
	check("random stream")
	if b.allDirty {
		t.Log("allDirty fallback engaged during the stream (expected on dense mutation)")
	}
	b.Reset()
	check("after reset")
	b.AddAccess(3, 9, 640)
	b.AddAccess(5, 9, 640)
	check("fresh window")
}

// TestVisitNewlySharedPending pins the incremental pending-list semantics:
// objects surface once per sharing transition, consumed entries retire,
// declined entries stay pending, ad-hoc (non-consuming) visits do not
// retire anything, and Reset clears the list.
func TestVisitNewlySharedPending(t *testing.T) {
	b := NewBuilder(4)
	collect := func(consume bool, accept func(key int64) bool) []int64 {
		var keys []int64
		b.VisitNewlyShared(consume, func(key int64, bytes float64, threads []int32) bool {
			keys = append(keys, key)
			return accept(key)
		})
		return keys
	}
	all := func(int64) bool { return true }

	b.AddAccess(0, 10, 100) // single-thread object: never pending
	b.AddAccess(0, 20, 50)
	b.AddAccess(1, 20, 50) // becomes shared
	b.AddAccess(2, 5, 70)
	b.AddAccess(3, 5, 70) // becomes shared

	if got := collect(false, all); len(got) != 2 || got[0] != 5 || got[1] != 20 {
		t.Fatalf("ad-hoc visit = %v, want [5 20] (sorted, shared only)", got)
	}
	if got := collect(false, all); len(got) != 2 {
		t.Fatalf("ad-hoc visit must not consume; second visit = %v", got)
	}
	// Consume 20, decline 5: it must stay pending.
	collect(true, func(key int64) bool { return key == 20 })
	if got := collect(false, all); len(got) != 1 || got[0] != 5 {
		t.Fatalf("after partial consume = %v, want [5]", got)
	}
	// A third thread joining an already-shared object is not a new
	// sharing transition.
	b.AddAccess(2, 20, 50)
	if got := collect(true, all); len(got) != 1 || got[0] != 5 {
		t.Fatalf("member join re-pended: %v", got)
	}
	if got := collect(true, all); got != nil {
		t.Fatalf("pending list not drained: %v", got)
	}

	b.Reset()
	if got := collect(true, all); got != nil {
		t.Fatalf("pending survives Reset: %v", got)
	}
	// Re-sharing after a reset is a new transition.
	b.AddAccess(0, 20, 50)
	b.AddAccess(1, 20, 50)
	if got := collect(true, all); len(got) != 1 || got[0] != 20 {
		t.Fatalf("post-reset re-share = %v, want [20]", got)
	}
}

// TestVisitNewlySharedParityWithFull drives both builders through the
// session's consumption protocol (a hotSeen set dedupes across windows; the
// callback accepts everything the set has not seen) and asserts the
// surfaced key sequences are identical — the property the session's
// hot-object snapshots rely on to stay byte-identical across variants.
func TestVisitNewlySharedParityWithFull(t *testing.T) {
	const n = 6
	rng := equivRand(0x5eed)
	inc := NewBuilder(n)
	full := NewFullBuilder(n)
	incSeen := map[int64]bool{}
	fullSeen := map[int64]bool{}
	surface := func(v interface {
		VisitNewlyShared(bool, func(int64, float64, []int32) bool)
	}, seen map[int64]bool, consume bool) []int64 {
		var out []int64
		v.VisitNewlyShared(consume, func(key int64, bytes float64, threads []int32) bool {
			if seen[key] {
				return true
			}
			if consume {
				seen[key] = true
			}
			out = append(out, key)
			return consume
		})
		return out
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			th := int(rng.next() % n)
			key := int64(rng.next() % 30)
			w := float64(rng.next() % 1000)
			inc.AddAccess(th, key, w)
			full.AddAccess(th, key, w)
		}
		consume := round%3 != 2 // mix boundary and ad-hoc snapshots
		gi := surface(inc, incSeen, consume)
		gf := surface(full, fullSeen, consume)
		if len(gi) != len(gf) {
			t.Fatalf("round %d: surfaced %v vs %v", round, gi, gf)
		}
		for k := range gi {
			if gi[k] != gf[k] {
				t.Fatalf("round %d: surfaced %v vs %v", round, gi, gf)
			}
		}
		if round%17 == 16 {
			inc.Reset()
			full.Reset()
		}
	}
}
