// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated distributed JVM. Each experiment has a
// Run function returning a structured result whose String method renders
// the paper-style table; cmd/djvmbench and the root bench suite call these.
package experiments

import (
	"fmt"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/pagesim"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// App identifies one of the benchmarks.
type App int

// The paper's three applications plus the scenario-era additions.
const (
	AppSOR App = iota
	AppBarnesHut
	AppWaterSpatial
	AppLU
	AppKVMix
)

func (a App) String() string {
	switch a {
	case AppSOR:
		return "SOR"
	case AppBarnesHut:
		return "Barnes-Hut"
	case AppWaterSpatial:
		return "Water-Spatial"
	case AppLU:
		return "LU"
	case AppKVMix:
		return "KVMix"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Apps lists the paper's benchmarks in paper order (the tables iterate
// these; the scenario-era additions live in AllApps).
var Apps = []App{AppSOR, AppBarnesHut, AppWaterSpatial}

// AllApps includes the post-paper workloads.
var AllApps = []App{AppSOR, AppBarnesHut, AppWaterSpatial, AppLU, AppKVMix}

// Scale shrinks the problem sizes for quick test runs; 1 = paper scale.
// Values > 1 divide dataset dimensions (rows, bodies, molecules, rounds
// are kept) so CI-speed runs preserve the experiment structure.
type Scale int

// NewWorkload instantiates an app. small selects the Table V dataset for
// SOR (1K×1K); scale > 1 shrinks datasets for fast tests.
func NewWorkload(a App, small bool, scale Scale) workload.Workload {
	if scale < 1 {
		scale = 1
	}
	s := int(scale)
	switch a {
	case AppSOR:
		w := workload.NewSOR()
		if small {
			w = workload.NewSORSmall()
		}
		w.RowsN /= s
		w.Cols /= s
		if w.RowsN < 32 {
			w.RowsN = 32
		}
		if w.Cols < 32 {
			w.Cols = 32
		}
		return w
	case AppBarnesHut:
		w := workload.NewBarnesHut()
		w.NBodies /= s
		if w.NBodies < 128 {
			w.NBodies = 128
		}
		return w
	case AppWaterSpatial:
		w := workload.NewWaterSpatial()
		w.NMol /= s
		if w.NMol < 64 {
			w.NMol = 64
		}
		return w
	case AppLU:
		w := workload.NewLU()
		w.N /= s
		if w.N < 4*w.Block {
			w.N = 4 * w.Block
		}
		return w
	case AppKVMix:
		w := workload.NewKVMix()
		w.Keys /= s
		if w.Keys < 256 {
			w.Keys = 256
		}
		w.TxnsPerRound /= s
		if w.TxnsPerRound < 16 {
			w.TxnsPerRound = 16
		}
		w.HotSpan = w.Keys / 8
		return w
	}
	panic("experiments: unknown app")
}

// DataSetLabel is the Table IV/V "Data Set Size" column.
func DataSetLabel(a App, small bool, scale Scale) string {
	w := NewWorkload(a, small, scale)
	return w.Characteristics().DataSet
}

// Spec configures one simulated run.
type Spec struct {
	App      App
	Small    bool // Table V datasets (SOR 1K×1K)
	Scale    Scale
	Nodes    int
	Threads  int
	Seed     uint64
	Tracking gos.TrackingMode
	// Rate is the uniform sampling rate (0 = leave full-sampling gaps).
	Rate sampling.Rate
	// TransferOALs ships OALs to the master (Table II disables).
	TransferOALs bool
	// DistributedTCM enables worker-side OAL reduction (§VI extension).
	DistributedTCM bool
	// Stack / Footprint / Adaptive attach the respective profilers.
	Stack     *core.StackConfig
	Footprint *core.FootprintConfig
	Adaptive  *core.AdaptiveConfig
	// PageTracker attaches the page-based baseline (Fig. 1b).
	PageTracker bool
	// Scenario, when non-nil, perturbs the run with the fault-injection
	// scenario engine (Figure S sensitivity sweeps).
	Scenario *scenario.Scenario
}

// Out is the outcome of one run.
type Out struct {
	Spec     Spec
	Exec     sim.Time
	Stats    gos.KernelStats
	Net      network.Stats
	TCM      *tcm.Map
	TCMCost  tcm.BuildCost
	TCMTime  sim.Time // master analyzer CPU (dedicated machine)
	PageTCM  *tcm.Map
	Profiler *core.Profiler
	// Footprints is the final per-thread sticky-set footprint (if
	// footprinting was enabled).
	Footprints map[int]sticky.Footprint
}

// ExecMs returns execution time in milliseconds.
func (o *Out) ExecMs() float64 { return o.Exec.Milliseconds() }

// OALKB is the profiling traffic in KB.
func (o *Out) OALKB() float64 { return float64(o.Net.CatBytes(network.CatOAL)) / 1024 }

// GOSKB is the protocol traffic (data + control + headers) in KB.
func (o *Out) GOSKB() float64 { return float64(o.Net.GOSBytes()) / 1024 }

// Run executes one spec deterministically.
func Run(spec Spec) *Out {
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	if spec.Threads <= 0 {
		spec.Threads = spec.Nodes
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = spec.Nodes
	kcfg.Tracking = spec.Tracking
	kcfg.TransferOALs = spec.TransferOALs
	kcfg.DistributedTCM = spec.DistributedTCM
	c := cell{
		Config: session.Config{Kernel: kcfg, Scenario: spec.Scenario},
		load:   NewWorkload(spec.App, spec.Small, spec.Scale),
		params: workload.Params{Threads: spec.Threads, Seed: spec.Seed},
		prof: &core.Config{
			Rate:      spec.Rate,
			Stack:     spec.Stack,
			Footprint: spec.Footprint,
			Adaptive:  spec.Adaptive,
		},
	}
	var tracker *pagesim.Tracker
	if spec.PageTracker {
		tracker = pagesim.NewTracker(spec.Threads)
		c.observer = tracker
	}
	s, exec := c.run()

	k, prof := s.Kernel(), s.Profiler()
	out := &Out{Spec: spec, Exec: exec, Stats: k.Stats(), Net: k.Net.Stats(), Profiler: prof}
	if spec.Tracking != gos.TrackingOff {
		out.TCM, out.TCMCost = k.TCM()
		out.TCMTime = k.Master().ComputeTime()
	}
	if tracker != nil {
		out.PageTCM = tracker.Build()
	}
	if spec.Footprint != nil {
		out.Footprints = make(map[int]sticky.Footprint)
		for tid, fp := range prof.Footprinters {
			out.Footprints[tid] = fp.Footprint()
		}
	}
	return out
}

// cellNodes and cellThreads are the cluster shape of every closed-loop
// figure cell (Figures CL, R, T, W and G).
const cellNodes, cellThreads = 4, 8

// cellKernel is the kernel config of a closed-loop figure cell.
func cellKernel(tracking gos.TrackingMode, fc *gos.FailureConfig) gos.Config {
	kcfg := gos.DefaultConfig()
	kcfg.Nodes, kcfg.Tracking, kcfg.Failure = cellNodes, tracking, fc
	return kcfg
}

// fullRate is the profiling the closed-loop figure cells attach.
var fullRate = core.Config{Rate: sampling.FullRate}

// cell is one simulated run: the session's config, the workload it
// launches, and what rides along — an access observer registered after the
// launch, the profiling attached after that, and the closed-loop policy
// (each optional).
type cell struct {
	session.Config
	load     workload.Workload
	params   workload.Params
	observer gos.AccessObserver
	prof     *core.Config
	policy   session.Policy
}

// run is the one launch / attach / set-policy / run sequence behind every
// table spec and figure cell; it returns the finished session and the
// workload execution time. A cell that fails to configure or run is a
// broken figure definition, so errors panic.
func (c cell) run() (*session.Session, sim.Time) {
	s := session.New(c.Config)
	err := s.Launch(c.load, c.params)
	if err == nil && c.observer != nil {
		s.Kernel().AddObserver(c.observer)
	}
	if err == nil && c.prof != nil {
		_, err = s.AttachProfiling(*c.prof)
	}
	if err == nil {
		err = s.SetPolicy(c.policy)
	}
	var rep *session.Report
	if err == nil {
		rep, err = s.Run()
	}
	if err != nil {
		panic(err)
	}
	return s, rep.ExecTime()
}

// Dispatcher runs a batch of specs somewhere other than the local worker
// pool — typically internal/dispatch's multi-host fleet. RunSpecs must
// return the outcomes in submission order (the positional contract every
// table and figure fold relies on); because each spec is a pure,
// seed-deterministic function, a dispatched batch is byte-identical to a
// local one. A returned error means the batch could not be completed at
// all; RunAll then degrades to the local pool, so installing a dispatcher
// can slow a regeneration down but never fail or corrupt it.
type Dispatcher interface {
	RunSpecs(specs []Spec) ([]*Out, error)
}

// activeDispatcher, when non-nil, fields every RunAll batch. It is a plain
// package variable set once at process startup (djvmbench/djvmrun -workers)
// before any experiment runs; it is not synchronized for mid-run swaps.
var activeDispatcher Dispatcher

// SetDispatcher installs (or, with nil, removes) the process-wide
// dispatcher RunAll routes batches through. Call before regenerating
// anything; the local pool argument of RunAll remains the fallback.
func SetDispatcher(d Dispatcher) { activeDispatcher = d }

// RunAll executes the specs through the pool's worker fan-out and returns
// the outcomes in submission order. Every spec is an independent,
// seed-deterministic simulation (Run builds a private kernel, engine and
// workload per call), so the collected results — and any table or figure
// folded from them positionally — are byte-identical at any parallelism.
// A nil pool runs the specs inline, exactly like the historical loops.
//
// When a Dispatcher is installed (SetDispatcher) the batch is offered to it
// first; a dispatcher error falls back to the local pool rather than
// failing the regeneration.
func RunAll(p *runner.Pool, specs []Spec) []*Out {
	if d := activeDispatcher; d != nil {
		if outs, err := d.RunSpecs(specs); err == nil {
			return outs
		}
	}
	jobs := make([]func() *Out, len(specs))
	for i := range specs {
		spec := specs[i]
		jobs[i] = func() *Out { return Run(spec) }
	}
	return runner.Collect(p, jobs)
}

// The tracker implements gos.AccessObserver directly.
var _ gos.AccessObserver = (*pagesim.Tracker)(nil)
