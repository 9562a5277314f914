package tcm

import (
	"math"
	"reflect"
	"testing"
)

// TestSeedMap: a seeded empty builder peeks exactly the seed map.
func TestSeedMap(t *testing.T) {
	seed := NewMap(4)
	seed.Set(0, 1, 100)
	seed.Set(1, 2, 40)
	b := NewBuilder(4)
	b.SeedMap(seed)
	m := b.Peek()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got, want := m.At(i, j), seed.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestSeedMapThenAccrue: live evidence adds on top of the seed.
func TestSeedMapThenAccrue(t *testing.T) {
	seed := NewMap(4)
	seed.Set(0, 1, 100)
	b := NewBuilder(4)
	b.SeedMap(seed)
	b.AddAccess(0, 10, 28)
	b.AddAccess(1, 10, 28)
	if got := b.Peek().At(0, 1); got != 128 {
		t.Errorf("At(0,1) = %g after seed+accrual, want 128", got)
	}
}

// TestSeedMapChargesNothing: seeding is prior knowledge, not measurement —
// the cost ledger and live-pair statistics stay untouched.
func TestSeedMapChargesNothing(t *testing.T) {
	seed := NewMap(4)
	seed.Set(0, 1, 100)
	seed.Set(2, 3, 100)
	b := NewBuilder(4)
	b.SeedMap(seed)
	_, cost := b.Build()
	if cost.PairAdds != 0 || cost.Objects != 0 || cost.Entries != 0 {
		t.Errorf("seeding charged cost %+v, want zero ledger", cost)
	}
}

// TestSeedMapInvalidatesPeekScratch: a seed applied between two PeekInto
// calls on the same scratch must appear in the second peek.
func TestSeedMapInvalidatesPeekScratch(t *testing.T) {
	b := NewBuilder(4)
	scratch := b.PeekInto(nil)
	seed := NewMap(4)
	seed.Set(1, 3, 64)
	b.SeedMap(seed)
	scratch = b.PeekInto(scratch)
	if got := scratch.At(1, 3); got != 64 {
		t.Errorf("scratch At(1,3) = %g after seed, want 64", got)
	}
}

// TestSeedMapEdgeCases: nil maps and dimension mismatches are ignored
// (the session only seeds fingerprint-matched profiles; anything else is
// not evidence), and zero-only maps leave the builder truly empty.
func TestSeedMapEdgeCases(t *testing.T) {
	b := NewBuilder(4)
	b.SeedMap(nil)
	b.SeedMap(NewMap(3)) // wrong dimension
	b.SeedMap(NewMap(4)) // all-zero: nothing to seed
	if got := b.Peek().Total(); got != 0 {
		t.Errorf("Total = %g after no-op seeds, want 0", got)
	}
}

// TestFixedCellsRoundTrip: accumulator-rendered maps survive the profile
// store's fixed-point serialization bit-exactly (AppendFixedCells feeds
// NewMapFromFixed, which feeds SeedMap on warm start).
func TestFixedCellsRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.AddAccess(0, 10, 100)
	b.AddAccess(1, 10, 100)
	b.AddAccess(1, 20, 3.1415926)
	b.AddAccess(2, 20, 3.1415926)
	m := b.Peek()
	cells := m.AppendFixedCells(nil)
	back := NewMapFromFixed(3, cells)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got, want := back.At(i, j), m.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if again := back.AppendFixedCells(nil); !reflect.DeepEqual(again, cells) {
		t.Errorf("second serialization differs: %v vs %v", again, cells)
	}
}

func TestNewMapFromFixedPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMapFromFixed accepted a mis-sized cell slice")
		}
	}()
	NewMapFromFixed(2, []int64{1, 2, 3})
}

// TestCellBitsRoundTrip: the bit-pattern codec must be exact for maps the
// fixed-point form cannot carry — arbitrary float accruals (the page-based
// baseline) including values with no finite Q12 representation.
func TestCellBitsRoundTrip(t *testing.T) {
	m := NewMap(3)
	m.Add(0, 1, 0.1) // not representable in Q12
	m.Add(1, 2, 3.1415926)
	m.Add(0, 2, math.SmallestNonzeroFloat64) // underflows fixed point
	bits := m.AppendCellBits(nil)
	back := NewMapFromBits(3, bits)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			g, w := back.At(i, j), m.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("At(%d,%d): bits %x, want %x", i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	if again := back.AppendCellBits(nil); !reflect.DeepEqual(again, bits) {
		t.Errorf("second serialization differs")
	}
}

func TestNewMapFromBitsPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMapFromBits accepted a mis-sized bits slice")
		}
	}()
	NewMapFromBits(2, []uint64{1, 2, 3})
}
