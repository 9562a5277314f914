// Command djvmbench regenerates the paper's tables and figures on the
// simulated distributed JVM.
//
// Usage:
//
//	djvmbench -fig all                    # every table and figure, paper scale
//	djvmbench -fig Table2 -scale 4        # one table at 1/4 dataset scale
//	djvmbench -fig fig9 -csv              # figure 9 as CSV series (names ignore case)
//	djvmbench -fig FigR,FigT,FigG,FigW    # several figures, in registry order
//	djvmbench -fig all -parallel 4        # fan runs out over 4 workers
//	djvmbench -fig all -workers host1:9377,host2:9377 # fan out over a djvmworker fleet
//	djvmbench -benchjson BENCH_current.json # machine-readable perf report
//
// The figure names are those of experiments.Figures: Table1 … Table5,
// Fig9, Fig1, FigS, FigCL, FigR, FigT, FigG and FigW. An unknown name
// exits 2 and lists the valid ones.
//
// Paper scale (-scale 1) reproduces the exact datasets (SOR 2K×2K,
// Barnes-Hut 4K bodies, Water-Spatial 512 molecules); larger -scale values
// shrink datasets proportionally for quick runs.
//
// Figures R, T, G and W double as assertions: when one of their claims
// fails, djvmbench prints each violation to stderr, finishes the remaining
// figures and exits 1.
//
// Every experiment is a set of independent seed-deterministic simulations;
// -parallel N fans them out over N workers (default GOMAXPROCS) through the
// parallel experiment runner and collects results in submission order, so
// the rendered tables and figures are byte-identical to -parallel 1 — only
// regeneration wall-clock changes.
//
// -benchjson measures the selected figures (all of them by default) plus
// the closed-loop epoch-snapshot probe with the testing package's benchmark
// driver and writes ns/op, bytes/op and allocs/op per experiment — plus the
// total regeneration wall-clock and the parallelism it ran at — as a
// single-run JSON report. A PR claiming a perf delta combines two such runs
// under "baseline"/"optimized" keys in its committed BENCH_<pr>.json
// artifact (see EXPERIMENTS.md and BENCH_1.json).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"jessica2/internal/dispatch"
	"jessica2/internal/experiments"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
)

// benchConfig is one fully parsed and validated invocation.
type benchConfig struct {
	figs      []experiments.Figure
	scale     int
	csv       bool
	parallel  int
	workers   string
	benchjson string
}

// parseArgs parses and validates a full command line (excluding argv[0])
// against the given figure registry.
func parseArgs(args []string, registry []experiments.Figure, errOut io.Writer) (*benchConfig, error) {
	fs := flag.NewFlagSet("djvmbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		fig       = fs.String("fig", "", "figures to regenerate: NAME[,NAME...] or all (names: "+figureNames(registry)+")")
		scale     = fs.Int("scale", 1, "dataset divisor (1 = paper scale)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		parallel  = fs.Int("parallel", 0, "experiment runner workers (0 = GOMAXPROCS, 1 = sequential)")
		workers   = fs.String("workers", "", "comma-separated djvmworker addresses; experiment batches are dispatched to the fleet (unreachable or dying workers degrade to the local pool)")
		benchjson = fs.String("benchjson", "", "benchmark the selected figures (default all) and write a JSON perf report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *fig == "" && *benchjson == "" {
		fs.Usage()
		return nil, errors.New("nothing to do: pass -fig or -benchjson")
	}
	if *scale < 1 {
		return nil, fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}
	if *parallel < 0 {
		return nil, fmt.Errorf("negative -parallel %d", *parallel)
	}
	bc := &benchConfig{scale: *scale, csv: *csv, parallel: *parallel, workers: *workers, benchjson: *benchjson}
	bc.figs = registry
	if *fig != "" {
		var err error
		if bc.figs, err = selectFigures(*fig, registry); err != nil {
			return nil, err
		}
	}
	return bc, nil
}

// selectFigures resolves a -fig value — "all" or a comma list of names,
// matched ignoring case — to registry entries in registry order.
func selectFigures(spec string, registry []experiments.Figure) ([]experiments.Figure, error) {
	if strings.EqualFold(spec, "all") {
		return registry, nil
	}
	want := make([]bool, len(registry))
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := 0
		for i < len(registry) && !strings.EqualFold(registry[i].Name, name) {
			i++
		}
		if i == len(registry) {
			return nil, fmt.Errorf("unknown figure %q (valid: %s, or all)", name, figureNames(registry))
		}
		want[i] = true
	}
	var figs []experiments.Figure
	for i, f := range registry {
		if want[i] {
			figs = append(figs, f)
		}
	}
	return figs, nil
}

// figureNames lists the registry's names for usage and error messages.
func figureNames(registry []experiments.Figure) string {
	names := make([]string, len(registry))
	for i, f := range registry {
		names[i] = f.Name
	}
	return strings.Join(names, ", ")
}

// execute regenerates the selected figures to out (or, with -benchjson,
// benchmarks them). A figure whose claims fail reports each violation to
// errOut; the remaining figures still run, and execute returns an error.
func (bc *benchConfig) execute(out, errOut io.Writer) error {
	sc := experiments.Scale(bc.scale)
	pool := runner.New(bc.parallel)
	if bc.workers != "" {
		disp := dispatch.New(dispatch.Config{
			Workers:  strings.Split(bc.workers, ","),
			Fallback: pool,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(errOut, format+"\n", args...)
			},
		})
		experiments.SetDispatcher(disp)
		defer func() {
			s := disp.Stats()
			fmt.Fprintf(errOut, "dispatch: %d jobs (%d remote, %d local), %d leases granted, %d expired, %d reassigned, %d stale rejected, %d workers lost\n",
				s.Jobs, s.Remote, s.Local, s.LeasesGranted, s.LeasesExpired, s.Reassignments, s.StaleRejected, s.WorkersLost)
		}()
	}
	if bc.benchjson != "" {
		if err := writeBenchJSON(out, bc.benchjson, bc.figs, sc, pool); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", bc.benchjson)
		return nil
	}

	violations := 0
	for _, f := range bc.figs {
		start := time.Now()
		fmt.Fprintf(out, "== %s (scale 1/%d) ==\n", f.Title, bc.scale)
		res := f.Run(sc, pool)
		fmt.Fprintln(out, bc.render(res))
		if v, ok := res.(interface{ Violations() []string }); ok {
			for _, msg := range v.Violations() {
				fmt.Fprintf(errOut, "djvmbench: %s violation: %s\n", f.Name, msg)
				violations++
			}
		}
		fmt.Fprintf(out, "-- regenerated in %v --\n\n", time.Since(start).Round(time.Millisecond))
	}
	if violations > 0 {
		return fmt.Errorf("%d figure claim(s) violated", violations)
	}
	return nil
}

// render formats a result as aligned text, or as CSV when -csv is set and
// the result is tabular.
func (bc *benchConfig) render(res fmt.Stringer) string {
	if bc.csv {
		switch r := res.(type) {
		case interface{ Table() *metrics.Table }:
			return r.Table().CSV()
		case interface{ CSV() string }:
			return r.CSV()
		}
	}
	return res.String()
}

// benchResult is one experiment's measurement in the -benchjson report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the top-level -benchjson document.
type benchReport struct {
	Scale     int    `json:"scale"`
	GoVersion string `json:"go_version"`
	// Parallel is the runner pool width the experiments ran at; CPUs is the
	// host's GOMAXPROCS, for judging how much fan-out could actually bite.
	Parallel int `json:"parallel"`
	CPUs     int `json:"cpus"`
	// WallClockMs is the end-to-end wall-clock of regenerating everything
	// once, back to back — the number the parallel runner exists to shrink.
	WallClockMs float64       `json:"wall_clock_ms"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// benchCase is one regeneration the report measures.
type benchCase struct {
	name string
	fn   func()
}

// benchCases lists the figures' regenerations plus the EpochSnapshot probe:
// one KVMix/phased closed-loop run at fixed 2 ms epochs, every boundary
// paying the snapshot path the incremental TCM maintenance feeds.
func benchCases(figs []experiments.Figure, sc experiments.Scale, p *runner.Pool) []benchCase {
	cases := make([]benchCase, 0, len(figs)+1)
	for _, f := range figs {
		run := f.Run
		cases = append(cases, benchCase{f.Name, func() { run(sc, p) }})
	}
	return append(cases, benchCase{"EpochSnapshot", func() { experiments.ClosedLoopProbe(sc, "kv") }})
}

// writeBenchJSON benchmarks the figures at the given scale and parallelism
// and writes the report to path, logging progress to out.
func writeBenchJSON(out io.Writer, path string, figs []experiments.Figure, sc experiments.Scale, p *runner.Pool) error {
	cases := benchCases(figs, sc, p)
	report := benchReport{
		Scale:     int(sc),
		GoVersion: runtime.Version(),
		Parallel:  p.Workers(),
		CPUs:      runtime.GOMAXPROCS(0),
	}
	// One timed end-to-end regeneration pass for the wall-clock headline.
	start := time.Now()
	for _, c := range cases {
		c.fn()
	}
	report.WallClockMs = float64(time.Since(start).Nanoseconds()) / 1e6
	fmt.Fprintf(out, "full regeneration (scale 1/%d, parallel %d): %v\n",
		int(sc), p.Workers(), time.Since(start).Round(time.Millisecond))

	for _, c := range cases {
		fmt.Fprintf(out, "benchmarking %s (scale 1/%d)...\n", c.name, int(sc))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
		report.Benchmarks = append(report.Benchmarks, benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	bc, err := parseArgs(os.Args[1:], experiments.Figures, os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "djvmbench:", err)
		}
		os.Exit(2)
	}
	if err := bc.execute(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "djvmbench:", err)
		os.Exit(1)
	}
}
