package tcm

import (
	"math"
	"sync"

	"jessica2/internal/oal"
)

// MirrorBuilders installs the package hook for the builder-identity test:
// every Builder's records, summaries and resets replay into a FullBuilder
// of its own, and each map a Builder renders, together with its cost ledger
// at that moment, must match the oracle's bit for bit. The first mismatch
// goes to fail. checks reports how many renders were compared; stop
// removes the hook.
func MirrorBuilders(fail func(format string, args ...any)) (checks func() int, stop func()) {
	m := &mirror{fail: fail, oracles: make(map[*Builder]*FullBuilder)}
	hook = m
	checks = func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.checks
	}
	return checks, func() { hook = nil }
}

type mirror struct {
	mu      sync.Mutex
	fail    func(format string, args ...any)
	failed  bool
	oracles map[*Builder]*FullBuilder
	checks  int
}

// oracle returns b's FullBuilder twin; the caller holds mu.
func (m *mirror) oracle(b *Builder) *FullBuilder {
	f := m.oracles[b]
	if f == nil {
		f = NewFullBuilder(b.n)
		m.oracles[b] = f
	}
	return f
}

func (m *mirror) record(b *Builder, r *oal.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.oracle(b).IngestRecord(r)
}

func (m *mirror) summary(b *Builder, s *Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.oracle(b).IngestSummary(s)
}

func (m *mirror) reset(b *Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.oracle(b).Reset()
}

func (m *mirror) rendered(b *Builder, got *Map, charged bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.oracle(b)
	var want *Map
	if charged {
		want, _ = f.Build()
	} else {
		want = f.Peek()
	}
	m.checks++
	if m.failed {
		return
	}
	for i := range want.cells {
		if math.Float64bits(got.cells[i]) != math.Float64bits(want.cells[i]) {
			m.failed = true
			m.fail("render %d (charged %v): cell [%d][%d] = %v, oracle %v",
				m.checks, charged, i/b.n, i%b.n, got.cells[i], want.cells[i])
			return
		}
	}
	if b.cost != f.cost {
		m.failed = true
		m.fail("render %d (charged %v): cost %+v, oracle %+v", m.checks, charged, b.cost, f.cost)
	}
}
