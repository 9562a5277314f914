package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"jessica2/internal/sim"
)

// testSizes shrink every workload so the determinism checks run in seconds.
var testSizes = sizes{sweepScale: 32, kvRounds: 24, serveRate: 300, serveHorizon: sim.Second}

func runOnce(t *testing.T, name string, seed uint64, traced bool) *outcome {
	t.Helper()
	w, err := newWorkload(name, seed, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := measureRep(inst, tr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if traced && len(tr.spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", name)
	}
	return r.out
}

// TestDigestDeterministic checks that two runs of one seed give the same
// digest, that the traced run's digest equals the untraced one's, and that
// another seed changes the inputs.
func TestDigestDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := runOnce(t, name, 3, false)
			b := runOnce(t, name, 3, false)
			c := runOnce(t, name, 3, true)
			if a.digest != b.digest {
				t.Errorf("same seed, different digests: %s vs %s", a.digest, b.digest)
			}
			if a.digest != c.digest {
				t.Errorf("traced digest %s differs from untraced %s", c.digest, a.digest)
			}
			if a.ops == 0 || a.simExec <= 0 {
				t.Errorf("empty run: %d operations, %v simulated s", a.ops, a.simExec)
			}
			if d := runOnce(t, name, 4, false); d.digest == a.digest {
				t.Errorf("seeds 3 and 4 gave the same digest %s", a.digest)
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)

	// metrics.json documents every metric.
	raw, err = os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]struct{ Unit, Layer string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	all := append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...)
	if len(doc.Metrics) != len(all) {
		t.Errorf("metrics.json documents %d metrics, the program reports %d", len(doc.Metrics), len(all))
	}
	for _, d := range all {
		if m, ok := doc.Metrics[d.name]; !ok || m.Unit != d.unit || m.Layer == "" {
			t.Errorf("metrics.json: %s missing, without a layer, or not in %s", d.name, d.unit)
		}
	}
}

// TestSelfTimes checks the self-time rule on a root with two overlapping
// children (pool workers) and one sequential child.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 50 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0},
		{name: "c", start: 70 * ms, end: 80 * ms, parent: 0},
		{name: "a.child", start: 20 * ms, end: 25 * ms, parent: 1},
	}
	got := selfTimes(spans)
	want := []time.Duration{40 * ms, 35 * ms, 30 * ms, 10 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	top, all := coverage(spans)
	if top != 80*ms || all != 120*ms {
		t.Errorf("coverage = %v, %v; want 80ms, 120ms", top, all)
	}
}
