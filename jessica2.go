// Package jessica2 is a library-level reproduction of the profiling system
// from "Adaptive Sampling-Based Profiling Techniques for Optimizing the
// Distributed JVM Runtime" (Lam, Luo, Wang — IPDPS 2010), built on a
// deterministic discrete-event simulation of the JESSICA2 distributed JVM.
//
// The library provides:
//
//   - a simulated cluster running a home-based lazy release consistency
//     (HLRC) global object space with object faulting, diff propagation,
//     distributed locks and barriers;
//   - fine-grained active correlation tracking via adaptive object
//     sampling, producing thread correlation maps (TCMs);
//   - sticky-set profiling via adaptive stack sampling (stack-invariant
//     mining) plus footprinting and resolution, feeding a migration cost
//     model;
//   - a thread migration engine and a correlation-driven global load
//     balancer;
//   - the paper's three SPLASH-2 workload ports (SOR, Barnes-Hut,
//     Water-Spatial) and synthetic workloads;
//   - experiment harnesses regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
// The entry point is the epoch-driven Session: launch a workload,
// optionally attach profiling and a closed-loop policy, then step or run.
// At every epoch boundary the session pauses the cluster at a safe point,
// snapshots the live profiling state (incremental TCM, per-thread
// footprints, rate trace, kernel/network counters) and lets the policy
// act — migrate threads (with sticky-set prefetch), re-home objects,
// retune the sampling rate — before the run resumes:
//
//	sess := jessica2.NewSession(jessica2.Config{Epoch: 50 * jessica2.Millisecond})
//	sess.Launch(jessica2.NewKVMix(), jessica2.Params{Threads: 8, Seed: 1})
//	sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate})
//	sess.SetPolicy(jessica2.NewRebalancePolicy())
//	rep, err := sess.Run()
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(rep)
//
// Manual stepping exposes the loop directly:
//
//	for {
//		done, err := sess.Step(50 * jessica2.Millisecond)
//		if err != nil || done {
//			break
//		}
//		snap := sess.Snapshot()
//		fmt.Println(snap.Now, snap.Kernel.Faults)
//	}
//
// Without a policy, Run executes the whole workload as one epoch: the
// classic post-hoc profiling run, whose Report carries the final TCM and
// counters.
//
// Session, Report and Profiler are aliases of the internal session and
// profiler types, not wrappers: NewSession maps the flat Config onto the
// session's, and every method documented there is the library's API.
package jessica2

import (
	"jessica2/internal/balancer"
	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/migration"
	"jessica2/internal/network"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// --- re-exported core vocabulary --------------------------------------------

// Time is virtual simulation time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// TrackingMode selects how object accesses are logged for correlation.
type TrackingMode = gos.TrackingMode

// Tracking modes.
const (
	TrackingOff     = gos.TrackingOff
	TrackingSampled = gos.TrackingSampled
	TrackingExact   = gos.TrackingExact
)

// Rate is the paper's nX page-relative sampling-rate notation.
type Rate = sampling.Rate

// FullRate samples every object.
const FullRate = sampling.FullRate

// Thread is a distributed-JVM thread handle, passed to workload bodies.
type Thread = gos.Thread

// Kernel is the distributed JVM instance.
type Kernel = gos.Kernel

// Class is a registered shared-object class.
type Class = heap.Class

// Object is a shared object in the global object space.
type Object = heap.Object

// ObjectID is a shared object's dense identifier (used by re-home actions).
type ObjectID = heap.ObjectID

// Registry is the class/object registry of a kernel (Kernel.Reg).
type Registry = heap.Registry

// Method names a Java method for shadow stack frames.
type Method = stack.Method

// Characteristics describes a workload (Table I metadata).
type Characteristics = workload.Characteristics

// Workload is a benchmark runnable on the DJVM.
type Workload = workload.Workload

// Params configures a workload launch.
type Params = workload.Params

// TCM is the thread correlation map.
type TCM = tcm.Map

// Footprint is a per-class sticky-set byte composition.
type Footprint = sticky.Footprint

// InvariantRef is a mined stack-invariant reference.
type InvariantRef = stack.InvariantRef

// Resolution is a resolved sticky set ready to prefetch.
type Resolution = sticky.Resolution

// Assignment maps thread ids to node ids.
type Assignment = balancer.Assignment

// ProfileConfig selects profiling subsystems (see package core).
type ProfileConfig = core.Config

// StackConfig configures the stack profiler.
type StackConfig = core.StackConfig

// AdaptiveConfig configures the adaptive rate controller.
type AdaptiveConfig = core.AdaptiveConfig

// FootprintConfig configures sticky-set footprinting.
type FootprintConfig = core.FootprintConfig

// MigrationOutcome reports one thread migration.
type MigrationOutcome = migration.Outcome

// Failure-tolerance vocabulary (see gos/failure.go): FailureConfig arms and
// tunes the layer via Config.Failure; HealthSnapshot/NodeHealth surface the
// detector's cluster view in session snapshots; FailureStats counts its
// work (heartbeats, lease expiries, evacuations, flush retries).
type (
	FailureConfig  = gos.FailureConfig
	FailureStats   = gos.FailureStats
	HealthSnapshot = gos.HealthSnapshot
	NodeHealth     = gos.NodeHealth
)

// DefaultFailureConfig returns the calibrated failure-layer timings
// (20ms heartbeats, 60ms leases, 30ms flush timeout with capped backoff).
var DefaultFailureConfig = gos.DefaultFailureConfig

// Workload types (paper benchmarks and synthetics).
type (
	// SOR is the red-black successive over-relaxation kernel.
	SOR = workload.SOR
	// BarnesHut is the hierarchical N-body simulation.
	BarnesHut = workload.BarnesHut
	// WaterSpatial is the molecular dynamics application.
	WaterSpatial = workload.WaterSpatial
	// Synthetic is the configurable microbenchmark.
	Synthetic = workload.Synthetic
	// LU is the SPLASH-2 blocked dense LU factorization kernel.
	LU = workload.LU
	// KVMix is the phase-shifting key-value transaction mix.
	KVMix = workload.KVMix
	// ServeMix is the open-loop RPC request-serving workload: zipf-skewed
	// tenants, fan-out call graphs over shared session/cache objects, and
	// an injected arrival schedule (Scenario.Arrivals or SetSchedule).
	ServeMix = workload.ServeMix
	// ServeStats is the open-loop serving view (arrivals, goodput,
	// in-flight depth, latency percentiles, and — when the robustness
	// layer is on — shed/retry/hedge/breaker accounting plus
	// goodput-within-SLO) surfaced in Snapshot.Serve.
	ServeStats = workload.ServeStats
	// RobustConfig arms ServeMix's request-lifecycle robustness layer:
	// per-request deadlines, admission control (load shedding), bounded
	// retries with capped backoff, quantile-delayed hedging, and per-node
	// circuit breakers fed by the failure detector. Assign to
	// ServeMix.Robust before Launch; nil keeps the classic byte-identical
	// serving path.
	RobustConfig = workload.RobustConfig
	// OpenLoop is the interface schedule-driven workloads implement.
	OpenLoop = workload.OpenLoop
)

// Workload constructors (paper-scale defaults).
var (
	NewSOR          = workload.NewSOR
	NewSORSmall     = workload.NewSORSmall
	NewBarnesHut    = workload.NewBarnesHut
	NewWaterSpatial = workload.NewWaterSpatial
	NewSynthetic    = workload.NewSynthetic
	NewLU           = workload.NewLU
	NewLUSmall      = workload.NewLUSmall
	NewKVMix        = workload.NewKVMix
	NewServeMix     = workload.NewServeMix
	// DefaultRobustConfig is the full protection stack at serving-scale
	// defaults (20ms deadline, shedding, retries, P95 hedging, breakers).
	DefaultRobustConfig = workload.DefaultRobustConfig
)

// --- scenario engine ---------------------------------------------------------

// Scenario is a deterministic, seed-driven perturbation schedule (CPU
// heterogeneity, link ramps, jitter, transient slowdowns, phase shifts)
// composed with a base workload run; see package scenario.
type Scenario = scenario.Scenario

// ScenarioRamp, ScenarioJitter, ScenarioSlowdown and ScenarioPhaseShift are
// the perturbation vocabulary of a Scenario.
type (
	ScenarioRamp       = scenario.Ramp
	ScenarioJitter     = scenario.Jitter
	ScenarioSlowdown   = scenario.Slowdown
	ScenarioPhaseShift = scenario.PhaseShift
)

// Ramp parameters.
const (
	RampLatency   = scenario.RampLatency
	RampBandwidth = scenario.RampBandwidth
)

// ScenarioCrash, ScenarioPartition and ScenarioFlushLoss are the failure
// events of a Scenario: node crash/restart windows, transient network
// partitions, and probabilistic loss/duplication of dedicated profile
// flushes. All are seed-deterministic; see the scenario package and the
// "crash", "flaky" and "partition" presets.
type (
	ScenarioCrash     = scenario.Crash
	ScenarioPartition = scenario.Partition
	ScenarioFlushLoss = scenario.FlushLoss
)

// Arrivals is the open-loop traffic vocabulary of a Scenario: a
// seed-deterministic Poisson, diurnal or burst arrival schedule that the
// session materializes into request arrival times for open-loop workloads
// (ServeMix). Same seed ⇒ byte-identical schedule; see scenario/arrivals.go
// and the "poisson", "diurnal" and "burst" presets.
type (
	Arrivals    = scenario.Arrivals
	ArrivalKind = scenario.ArrivalKind
)

// Arrival kinds.
const (
	ArrivePoisson = scenario.ArrivePoisson
	ArriveDiurnal = scenario.ArriveDiurnal
	ArriveBurst   = scenario.ArriveBurst
)

// ScenarioPreset builds one of the named built-in scenarios; ParseScenario
// accepts comma-separated preset lists ("hetero,jitter"). See
// scenario.PresetNames for the vocabulary.
var (
	ScenarioPreset = scenario.Preset
	ParseScenario  = scenario.Parse
)

// Phase is the workload phase register the scenario engine drives.
type Phase = workload.Phase

// Profiling config helpers.
var (
	DefaultStackConfig    = core.DefaultStackConfig
	DefaultAdaptiveConfig = core.DefaultAdaptiveConfig
	DefaultResolverConfig = sticky.DefaultResolverConfig
	DefaultFootprinter    = sticky.DefaultFootprinterConfig
)

// Distance metrics (paper equations 1 and 2) and accuracy.
var (
	DistanceEUC = tcm.DistanceEUC
	DistanceABS = tcm.DistanceABS
	Accuracy    = tcm.Accuracy
)

// --- session facade ----------------------------------------------------------

// Config assembles a DJVM instance.
type Config struct {
	// Nodes is the cluster size (node 0 is the master JVM).
	Nodes int
	// Tracking selects the correlation-tracking mode.
	Tracking TrackingMode
	// TransferOALs ships OALs to the master (disable to isolate
	// collection CPU cost as in Table II).
	TransferOALs bool
	// DistributedTCM enables the paper's §VI scalability extension:
	// workers pre-reduce their OALs into per-object summaries.
	DistributedTCM bool
	// OALFlushEntries overrides the buffered-entry threshold that triggers
	// a dedicated profile flush to the master (0 keeps the default). Lower
	// thresholds ship more, smaller, dedicated CatOAL messages — the
	// traffic class failure scenarios can drop or duplicate.
	OALFlushEntries int
	// Network overrides the interconnect model field by field: any zero
	// field keeps its default, so partial overrides (say, latency only)
	// compose with the Fast Ethernet baseline.
	Network network.Config
	// Costs overrides the CPU cost model field by field (zero fields keep
	// their calibrated defaults).
	Costs gos.CostModel
	// Scenario, when non-nil, perturbs the run with the fault-injection
	// scenario engine (heterogeneous CPUs, link ramps, jitter, transient
	// slowdowns, workload phase shifts, node crashes, partitions, lossy
	// profile flushes). Same-seed runs stay deterministic.
	Scenario *Scenario
	// Failure, when non-nil, arms the runtime's failure-tolerance layer:
	// heartbeat/lease node-death detection with safe-point thread
	// evacuation, reliable (timeout + backoff + dedup) profile flushes,
	// and graceful TCM degradation for dead nodes' stale summaries. Use
	// DefaultFailureConfig for calibrated timings; leave nil to keep the
	// classic fail-free protocol byte-identical.
	Failure *FailureConfig
	// Epoch is the closed-loop stepping period Session.Run and RunUntil
	// use when a policy is installed (Step takes an explicit period).
	Epoch Time
	// Profile configures profile-store persistence: Load warm-starts the
	// run from a stored profile (fingerprint-checked; a mismatch degrades
	// to a cold start with Session.ProfileWarning set, never a session
	// error), Save arms end-of-run capture via Session.CapturedProfile.
	Profile ProfileIO
}

// DefaultConfig mirrors the paper's 8-node Fast Ethernet testbed with
// sampled correlation tracking enabled.
func DefaultConfig() Config {
	return Config{
		Nodes:        8,
		Tracking:     TrackingSampled,
		TransferOALs: true,
	}
}

// Closed-loop vocabulary: policies observe epoch snapshots and return
// actions the session applies mid-run (see package internal/session).
type (
	// Policy is the pluggable observe→decide→act controller.
	Policy = session.Policy
	// Snapshot is the live profiling state at an epoch boundary.
	Snapshot = session.Snapshot
	// HotObject is one newly shared object in a snapshot.
	HotObject = session.HotObject
	// Action is one closed-loop decision (sealed vocabulary below).
	Action = session.Action
	// MigrateThread moves a thread at its next safe point.
	MigrateThread = session.MigrateThread
	// RehomeObject migrates an object's home node.
	RehomeObject = session.RehomeObject
	// SetSamplingRate retunes the uniform sampling rate cluster-wide.
	SetSamplingRate = session.SetSamplingRate
	// AppliedAction is one logged executed decision.
	AppliedAction = session.AppliedAction
	// NopPolicy is the passive baseline policy.
	NopPolicy = session.NopPolicy
	// RebalancePolicy is the shipped TCM-driven placement + hot-object
	// home-rebalancing policy with sticky-set prefetch migration.
	RebalancePolicy = session.RebalancePolicy
)

// NewRebalancePolicy returns the shipped closed-loop optimizer with its
// default tuning.
var NewRebalancePolicy = session.NewRebalancePolicy

// --- profile store ----------------------------------------------------------

// Profile-store vocabulary (see package internal/profile): a StoredProfile
// is the end-of-run artifact — final TCM, thread placement, hot-object
// homes, sticky footprints, rate trace and decision log — serialized to a
// versioned, deterministic, self-describing binary format and used to
// warm-start later runs of the same workload.
type (
	// StoredProfile is the persisted end-of-run profiling artifact.
	// (ProfileConfig, above, configures the *live* profiling subsystems —
	// the two are unrelated despite the shared prefix.)
	StoredProfile = profile.Profile
	// ProfileFingerprint identifies the run a profile was captured from
	// (workload, scenario, nodes, threads, seed); loads are accepted only
	// on an exact match.
	ProfileFingerprint = profile.Fingerprint
	// ProfileIO wires a session to the profile store (Config.Profile).
	ProfileIO = session.ProfileIO
	// ProfileRateChange is one stored adaptive-controller decision.
	ProfileRateChange = profile.RateChange
	// ProfileDecision is one stored applied policy decision.
	ProfileDecision = profile.Decision
	// WarmStartPolicy is the profile-guided closed-loop controller: it
	// replays the stored hot-object homes early and drives the sampling
	// rate from the live-vs-stored TCM divergence signal, spending the
	// sampling budget only where the live run diverges.
	WarmStartPolicy = session.WarmStartPolicy
)

// ProfileVersion is the profile store's current format version; Decode
// rejects newer versions with ErrProfileVersion.
const ProfileVersion = profile.Version

// Profile store functions: binary codec, file round trip, and the
// divergence metric (total-variation distance of shape-normalized maps)
// behind Snapshot.Divergence.
var (
	EncodeProfile     = profile.Encode
	DecodeProfile     = profile.Decode
	SaveProfile       = profile.Save
	LoadProfile       = profile.Load
	ProfileDivergence = profile.Divergence
)

// Profile store errors (typed, matchable with errors.Is).
var (
	// ErrProfileBadMagic rejects data that is not a jessica2 profile.
	ErrProfileBadMagic = profile.ErrBadMagic
	// ErrProfileVersion rejects forward-incompatible format versions.
	ErrProfileVersion = profile.ErrVersion
	// ErrProfileCorrupt rejects truncated or bit-flipped payloads.
	ErrProfileCorrupt = profile.ErrCorrupt
)

// NewWarmStartPolicy returns the profile-guided policy with its default
// tuning (RebalancePolicy inner optimizer, 0.10/0.35 divergence
// hysteresis, 1X floor rate).
var NewWarmStartPolicy = session.NewWarmStartPolicy

// Session lifecycle errors.
var (
	// ErrStarted rejects configuration calls after stepping has begun.
	ErrStarted = session.ErrStarted
	// ErrFinished rejects Run on a completed session.
	ErrFinished = session.ErrFinished
	// ErrNoWorkload rejects stepping before any Launch.
	ErrNoWorkload = session.ErrNoWorkload
	// ErrNotFinished rejects Report before completion.
	ErrNotFinished = session.ErrNotFinished
)

// Session is an epoch-driven closed-loop run of the distributed JVM, and
// the library's one run API: Launch, AttachProfiling and SetPolicy, then
// Step, RunUntil or Run. Configuration errors surface on the first call
// that uses them.
type Session = session.Session

// Report gives access to a completed run's results.
type Report = session.Report

// Profiler is the attached profiling subsystem (Session.AttachProfiling):
// mined invariants, footprints and sticky-set resolution per thread, the
// adaptive controller's RateTrace and the StackCPU charged to sampling.
type Profiler = core.Profiler

// NewSession builds a session from the config; zero numeric fields keep
// their calibrated defaults, field by field. An invalid configuration is
// recorded and returned by the first Launch/Step/Run call.
func NewSession(cfg Config) *Session {
	return session.New(session.Config{
		Kernel: gos.Config{
			Nodes:           cfg.Nodes,
			Net:             cfg.Network,
			Costs:           cfg.Costs,
			Tracking:        cfg.Tracking,
			TransferOALs:    cfg.TransferOALs,
			DistributedTCM:  cfg.DistributedTCM,
			OALFlushEntries: cfg.OALFlushEntries,
			Failure:         cfg.Failure,
		},
		Scenario: cfg.Scenario,
		Epoch:    cfg.Epoch,
		Profile:  cfg.Profile,
	})
}

// --- balancing & migration helpers ------------------------------------------

// PlanPlacement computes an improved thread placement from a TCM.
func PlanPlacement(m *TCM, current Assignment, nodes int) (Assignment, []balancer.Move) {
	return balancer.Plan(m, current, balancer.DefaultConfig(nodes))
}

// PlanPlacementHomeAware additionally weighs each thread's affinity to the
// nodes homing its data (the paper's §VI "home effect"); homeAffinity
// comes from Report.HomeAffinity.
func PlanPlacementHomeAware(m *TCM, current Assignment, nodes int, homeAffinity [][]float64, homeWeight float64) (Assignment, []balancer.Move) {
	cfg := balancer.DefaultConfig(nodes)
	cfg.HomeAffinity = homeAffinity
	cfg.HomeWeight = homeWeight
	return balancer.Plan(m, current, cfg)
}

// HomeMove is one executed or advised object home migration.
type HomeMove = gos.HomeMove

// CrossVolume is the correlation volume split across nodes by a placement.
var CrossVolume = balancer.CrossVolume

// LocalVolume is the collocated correlation volume of a placement.
var LocalVolume = balancer.LocalVolume

// BlockedPlacement is the spawn-order default placement.
var BlockedPlacement = balancer.Blocked
