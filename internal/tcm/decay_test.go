package tcm

import (
	"math"
	"testing"
)

// decayFixture accrues a small known map: threads 0,1 share object 10
// (100 bytes), threads 1,2 share object 20 (40 bytes), threads 0,2 share
// object 30 (8 bytes).
func decayFixture() *Builder {
	b := NewBuilder(4)
	b.AddAccess(0, 10, 100)
	b.AddAccess(1, 10, 100)
	b.AddAccess(1, 20, 40)
	b.AddAccess(2, 20, 40)
	b.AddAccess(0, 30, 8)
	b.AddAccess(2, 30, 8)
	return b
}

func TestDecayThreads(t *testing.T) {
	b := decayFixture()
	b.DecayThreads([]int{2}, 0.5)
	m := b.Peek()
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 1, 100}, // no dead thread involved: untouched
		{1, 2, 20},  // halved
		{0, 2, 4},   // halved
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := m.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
		if got := m.At(c.j, c.i); got != c.want {
			t.Errorf("At(%d,%d) = %g, want %g (symmetry)", c.j, c.i, got, c.want)
		}
	}
}

func TestDecayThreadsBothDeadDecaysTwice(t *testing.T) {
	b := decayFixture()
	b.DecayThreads([]int{1, 2}, 0.5)
	if got := b.Peek().At(1, 2); got != 10 {
		t.Errorf("both-dead pair At(1,2) = %g, want 10 (factor applied twice)", got)
	}
	if got := b.Peek().At(0, 1); got != 50 {
		t.Errorf("half-dead pair At(0,1) = %g, want 50", got)
	}
}

func TestDecayThreadsEdgeCases(t *testing.T) {
	b := decayFixture()
	before := b.Peek().At(0, 1)
	b.DecayThreads([]int{-1, 99}, 0.5) // out-of-range ids ignored
	b.DecayThreads([]int{0}, 1.5)      // factor >= 1: no-op
	if got := b.Peek().At(0, 1); got != before {
		t.Errorf("At(0,1) = %g after no-op decays, want %g", got, before)
	}
	b.DecayThreads([]int{0}, math.NaN()) // NaN clamps to 0: full quarantine
	if got := b.Peek().At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %g after NaN-factor decay, want 0", got)
	}
	if got := b.Peek().At(1, 2); got != 40 {
		t.Errorf("At(1,2) = %g, untouched pair must survive", got)
	}
}

// TestDecayThreadsInvalidatesPeekScratch: a decay between two PeekInto
// calls on the same scratch must not leave stale cells behind.
func TestDecayThreadsInvalidatesPeekScratch(t *testing.T) {
	b := decayFixture()
	scratch := b.PeekInto(nil)
	b.DecayThreads([]int{2}, 0.25)
	scratch = b.PeekInto(scratch)
	if got := scratch.At(1, 2); got != 10 {
		t.Errorf("scratch At(1,2) = %g after decay, want 10", got)
	}
}

// TestDecayThenAccrue: evidence logged after a decay accrues at full
// weight (decay discounts history, not the future).
func TestDecayThenAccrue(t *testing.T) {
	b := decayFixture()
	b.DecayThreads([]int{2}, 0)
	if got := b.Peek().At(1, 2); got != 0 {
		t.Fatalf("At(1,2) = %g after full quarantine, want 0", got)
	}
	b.AddAccess(1, 40, 64)
	b.AddAccess(2, 40, 64)
	if got := b.Peek().At(1, 2); got != 64 {
		t.Errorf("At(1,2) = %g after post-decay accrual, want 64", got)
	}
}
