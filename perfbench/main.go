// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads through the simulator's public entry points for a
// fixed wall-clock budget, checks every repetition's simulated outputs,
// and prints the metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 38 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it alternates untraced and traced repetitions, reports the
// per-layer metrics, prints a per-layer self-time table to standard error
// and writes the spans as Chrome trace_event JSON, which Perfetto opens, to
// .bench_build/traces/<workload>-seed<seed>.json.
//
// Workloads: paper-sweep (the paper's profiling grid through
// experiments.Run and a runner.Pool), closedloop-kv (a closed-loop session
// stepping KVMix under RebalancePolicy) and serve-faults (open-loop
// ServeMix through crashes with the full request-lifecycle stack).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"jessica2/internal/experiments"
	"jessica2/internal/sim"
)

// sizes fixes the amount of simulated work in one repetition.
type sizes struct {
	sweepScale   experiments.Scale
	kvRounds     int
	serveRate    float64 // requests per simulated second, between bursts
	serveHorizon sim.Time
}

// benchSizes are the sizes the benchmark measures; the tests use smaller
// ones to check determinism quickly.
var benchSizes = sizes{sweepScale: 4, kvRounds: 480, serveRate: 1500, serveHorizon: 20 * sim.Second}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-sweep", "closedloop-kv", "serve-faults"}

// bench builds a fresh system from the generated inputs, up to its
// first step or job.
type bench interface {
	setup() (instance, setupSplit, error)
}

// instance is one set-up system; run simulates it to completion once.
// Spans opened by run hang under root.
type instance interface {
	run(tr *tracer, root int) (*outcome, error)
}

// setupSplit divides set-up time: kernel construction, workload Launch,
// profiler attach and policy install (host wall time each).
type setupSplit struct{ newKernel, launch, attach time.Duration }

func (s setupSplit) total() time.Duration { return s.newKernel + s.launch + s.attach }

// jobTime is one sweep job's host time, keyed "<app>.<mode>".
type jobTime struct {
	key string
	d   time.Duration
}

// outcome is what one repetition reports back to the harness.
type outcome struct {
	digest  string
	ops     int
	simExec float64 // simulated seconds
	// sim holds the exact, seed-determined per-layer values: public
	// counters and simulated outcomes.
	sim         map[string]float64
	steps       []time.Duration // host time of each Session.Step
	jobs        []jobTime       // host time of each sweep job
	quarterHost [4]time.Duration
	quarterArr  [4]int
	finalBuild  time.Duration
	// keep is the simulated state, held reachable for heap_live_mb.
	keep any
}

func newWorkload(name string, seed uint64, sz sizes) (bench, error) {
	switch name {
	case "paper-sweep":
		return newSweep(seed, sz.sweepScale), nil
	case "closedloop-kv":
		return newKV(seed, sz.kvRounds)
	case "serve-faults":
		return newServe(seed, sz.serveRate, sz.serveHorizon)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func joinProblems(p []string) error {
	if len(p) == 0 {
		return nil
	}
	return errors.New(strings.Join(p, "; "))
}

// rep is one measured repetition.
type rep struct {
	traced        bool
	run           time.Duration // wall time
	cpu           time.Duration // process CPU time
	allocs, bytes uint64
	heapLive      uint64
	gcCycles      uint32
	gcPause       time.Duration
	gcCPU         float64
	out           *outcome
}

// gcCPUSeconds reads the runtime's estimate of CPU spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// cpuTime is the CPU time, user and system, that all of the process's
// threads have used so far. Unlike wall time it leaves out the time the
// host gives to other guests (steal on a shared virtual machine), so it
// measures the program rather than its neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup collects garbage, then times one set-up.
func timedSetup(w bench) (instance, setupSplit, error) {
	runtime.GC()
	return w.setup()
}

// measureRep sets the system up and runs it once. Allocation counters
// cover the run only; heap_live is read after a forced collection with
// the simulated state still reachable.
func measureRep(inst instance, tr *tracer) (rep, error) {
	r := rep{traced: tr != nil}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	root := tr.begin("bench.rep", -1, 0)
	c0 := cpuTime()
	t0 := time.Now()
	out, err := inst.run(tr, root)
	r.run = time.Since(t0)
	r.cpu = cpuTime() - c0
	tr.end(root)
	tr.nextRun()
	runtime.ReadMemStats(&m1)
	r.gcCPU = gcCPUSeconds() - gc0
	if out == nil {
		return r, err
	}
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.heapLive = m2.HeapAlloc
	runtime.KeepAlive(out.keep)
	out.keep = nil
	r.out = out
	return r, err
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	sizes    sizes
}

// setup_s is a median over at least minSetups set-ups, and over more (up
// to maxSetups) until setupBudget has passed after the repetitions: a
// set-up can take well under a millisecond, so one sample says little.
const (
	minSetups   = 25
	maxSetups   = 1000
	setupBudget = 1500 * time.Millisecond
)

// measurement is everything a run collected.
type measurement struct {
	reps     []rep
	setups   []setupSplit
	spans    []span
	problems []string
	ops      int
}

// measure repeats the workload until the budget is spent (and at least
// three untraced repetitions, plus as many traced ones with tracing on).
// Every repetition must produce the same digest.
func measure(cfg runConfig, stdout, log io.Writer) (*measurement, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m := &measurement{}
	start := time.Now()
	untraced, traced := 0, 0
	for i := 0; ; i++ {
		enough := untraced >= 3 && (!cfg.trace || traced >= 3)
		if enough && time.Since(start) >= cfg.budget {
			break
		}
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		inst, sp, err := timedSetup(w)
		if err != nil {
			m.problems = append(m.problems, fmt.Sprintf("repetition %d set-up: %v", i, err))
			break
		}
		m.setups = append(m.setups, sp)
		r, err := measureRep(inst, t)
		if r.out != nil {
			m.ops += r.out.ops
		}
		if err != nil {
			m.problems = append(m.problems, fmt.Sprintf("repetition %d: %v", i, err))
			if r.out != nil {
				m.reps = append(m.reps, r)
			}
			break
		}
		fmt.Fprintf(stdout, "digest %s seed=%d rep=%d traced=%v %s\n", cfg.workload, cfg.seed, i, r.traced, r.out.digest)
		if len(m.reps) > 0 && r.out.digest != m.reps[0].out.digest {
			m.problems = append(m.problems, fmt.Sprintf("repetition %d digest %s differs from repetition 0 (%s)",
				i, r.out.digest, m.reps[0].out.digest))
		}
		m.reps = append(m.reps, r)
		if r.traced {
			traced++
		} else {
			untraced++
		}
	}
	setupStart := time.Now()
	for len(m.problems) == 0 && len(m.setups) < maxSetups &&
		(len(m.setups) < minSetups || time.Since(setupStart) < setupBudget) {
		_, sp, err := timedSetup(w)
		if err != nil {
			m.problems = append(m.problems, fmt.Sprintf("set-up: %v", err))
			break
		}
		m.setups = append(m.setups, sp)
	}
	if tr != nil {
		m.spans = tr.spans
	}
	fmt.Fprintf(log, "%s seed=%d: %d repetitions (%d traced), %d set-ups, %.1fs\n",
		cfg.workload, cfg.seed, len(m.reps), traced, len(m.setups), time.Since(start).Seconds())
	fmt.Fprintf(log, "run_s (CPU) / wall s per repetition:")
	for _, r := range m.reps {
		fmt.Fprintf(log, " %.3f/%.3f", r.cpu.Seconds(), r.run.Seconds())
	}
	fmt.Fprintln(log)
	return m, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 38, "measured wall-clock budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, sizes: benchSizes,
	}
	m, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: len(m.problems) == 0, Attempted: max(m.ops, 1)}
	for _, p := range m.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if cfg.trace {
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", cfg.workload, cfg.seed)
		if err := writeChromeTrace(path, m.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace: first traced repetition written to %s\n", path)
		res.Metrics = pick(perLayerMetrics, layerMetrics(m, stderr))
	} else {
		res.Metrics = pick(endToEndMetrics, endToEnd(m))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// endToEndMetrics are the untraced metrics every workload reports.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"allocs_m", "millions"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"sim_exec_s", "sim_s"},
}

func endToEnd(m *measurement) map[string]float64 {
	un := untracedReps(m)
	return map[string]float64{
		"setup_s":      median(mapSetups(m.setups, setupSplit.total)),
		"run_s":        median(mapReps(un, func(r rep) float64 { return r.cpu.Seconds() })),
		"allocs_m":     median(mapReps(un, func(r rep) float64 { return float64(r.allocs) / 1e6 })),
		"alloc_mb":     median(mapReps(un, func(r rep) float64 { return float64(r.bytes) / 1e6 })),
		"heap_live_mb": median(mapReps(un, func(r rep) float64 { return float64(r.heapLive) / 1e6 })),
		"sim_exec_s":   simExec(m),
	}
}

// simExec is the simulated execution time, identical in every repetition.
func simExec(m *measurement) float64 {
	if len(m.reps) == 0 {
		return 0
	}
	return m.reps[0].out.simExec
}

func untracedReps(m *measurement) []rep {
	var out []rep
	for _, r := range m.reps {
		if !r.traced {
			out = append(out, r)
		}
	}
	return out
}

func mapReps(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func mapSetups(s []setupSplit, f func(setupSplit) time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, sp := range s {
		out[i] = f(sp).Seconds()
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of sorted durations by nearest rank.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
