package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the simulator.
// start and end are offsets from the tracer's epoch; parent indexes the
// tracer's span list (-1 for a root); every span of one repetition shares
// its run id; lane separates concurrent jobs in the trace viewer.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	run        int
	lane       int
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced repetitions pay only a nil check per call.
// Sweep jobs open spans from the pool's worker goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, run: t.run, lane: lane})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// nextRun starts a new repetition: later spans carry a fresh run id.
func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover (children of one parent may overlap when they
// run on different pool workers, so the covered part is their union).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, c := range kids[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curLo, curHi, open = iv[0], iv[1], true
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow aggregates the spans of one name over all traced repetitions.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layerTable sums span counts, durations and self times by span name,
// ordered by self time, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(rows)
			idx[s.name] = j
			rows = append(rows, layerRow{name: s.name})
		}
		rows[j].count++
		rows[j].total += s.end - s.start
		rows[j].self += self[i]
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	return rows
}

// coverage splits the traced run time: top is the summed duration of the
// top-level spans (the root's direct children, which run one after
// another), all is the summed self time of every span. Both are totals
// over all traced repetitions. all equals the roots' duration when no
// spans overlap; sweep jobs overlap on the pool's workers, so there it
// exceeds it by the work done in parallel.
func coverage(spans []span) (top, all time.Duration) {
	for i, s := range selfTimes(spans) {
		all += s
		if p := spans[i].parent; p >= 0 && spans[p].parent < 0 {
			top += spans[i].end - spans[i].start
		}
	}
	return top, all
}

// printLayerTable writes the per-layer self-time table.
func printLayerTable(w io.Writer, spans []span, reps int) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s   (per traced repetition, %d repetitions)\n", "span", "count", "total_ms", "self_ms", reps)
	for _, r := range layerTable(spans) {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", r.name, r.count/reps,
			ms(r.total)/float64(reps), ms(r.self)/float64(reps))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of the first traced repetition as
// trace_event JSON to path; one closedloop-kv repetition alone holds
// twenty thousand spans.
func writeChromeTrace(path string, spans []span) error {
	var evs []chromeEvent
	for i, s := range spans {
		if s.run != spans[0].run {
			break
		}
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"run": s.run, "id": i, "parent": s.parent, "parent_name": parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
