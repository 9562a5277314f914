// Package session implements the closed-loop profiling session at the heart
// of the public API: an epoch-driven run of the distributed JVM that pauses
// at safe points, exposes live snapshots of the profiling state (incremental
// TCM, per-thread footprints, rate trace, kernel and network counters), and
// applies pluggable observe→decide→act policies — thread migration, object
// home migration, sampling-rate retuning — while the workload keeps running.
//
// This is the controller-in-the-loop shape the paper's runtime optimization
// story calls for: profile → plan → migrate → keep running, every epoch,
// instead of profiling a run to completion and only then planning.
package session

import (
	"errors"
	"fmt"
	"sort"

	"jessica2/internal/balancer"
	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/migration"
	"jessica2/internal/network"
	"jessica2/internal/profile"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// Lifecycle errors returned by the session API.
var (
	// ErrStarted rejects configuration calls after stepping has begun.
	ErrStarted = errors.New("jessica2: session already started")
	// ErrFinished rejects Run after the session has completed.
	ErrFinished = errors.New("jessica2: session already finished")
	// ErrNoWorkload rejects stepping before any Launch.
	ErrNoWorkload = errors.New("jessica2: session has no workload launched")
	// ErrNotFinished rejects Report before the run completes.
	ErrNotFinished = errors.New("jessica2: session still running")
)

// Config assembles a session.
type Config struct {
	// Kernel is the fully resolved DJVM configuration.
	Kernel gos.Config
	// Scenario, when non-nil, perturbs the run with the fault-injection
	// scenario engine.
	Scenario *scenario.Scenario
	// Epoch is the default stepping period used by Run and RunUntil when a
	// policy is installed (Step takes an explicit period instead).
	Epoch sim.Time
	// Profile configures profile persistence (see ProfileIO).
	Profile ProfileIO
}

// ProfileIO wires a session to the profile store.
type ProfileIO struct {
	// Load, when non-nil, warm-starts the run from a stored profile. The
	// profile's fingerprint must match the session's (workload, nodes,
	// threads, seed, scenario); a mismatch degrades gracefully to a cold
	// start, recorded as a warning (Session.ProfileWarning) — never as the
	// sticky Session.Err. On a match the stored placement is applied
	// before epoch 0 (zero-cost: threads spawn at their profiled nodes)
	// and the master's TCM accumulator is seeded from the stored map.
	Load *profile.Profile
	// Save arms end-of-run profile capture: once the run completes,
	// Session.CapturedProfile assembles the artifact. Capture only reads
	// state (uncharged peeks), so an armed session is byte-identical to an
	// unarmed one — the profile golden-identity gate asserts this.
	Save bool
}

// Session is one epoch-driven closed-loop run of the distributed JVM.
type Session struct {
	k     *gos.Kernel
	prof  *core.Profiler
	phase *workload.Phase
	mig   *migration.Engine

	cfg      Config
	scripted bool
	policy   Policy
	loads    []workload.Workload
	// openLoops are the launched open-loop workloads (schedule-driven);
	// the first one's serving stats surface in snapshots.
	openLoops []workload.OpenLoop

	started  bool
	done     bool
	execTime sim.Time
	epoch    int

	// hotSeen marks summary objects already surfaced through Snapshot.Hot,
	// so each epoch's hot list reports only newly shared objects (built-in
	// hysteresis: a policy that re-homed an object once is not asked to
	// reconsider it every epoch).
	hotSeen map[int64]bool

	// applied logs every policy action the session executed.
	applied []AppliedAction

	// Profile persistence state: fp is this run's fingerprint (built up
	// across Launches), loaded is the accepted warm-start profile with its
	// reconstructed map, loadWarning records a rejected load.
	fp          profile.Fingerprint
	loaded      *profile.Profile
	loadedTCM   *tcm.Map
	loadWarning string
	// priorTCM is the map actually seeded into the live accumulator (nil
	// when nothing was seeded): the divergence signal subtracts it so the
	// stored prior cannot drown out live drift.
	priorTCM *tcm.Map

	// Scratch reused across boundary snapshots: sessions pause at every
	// epoch, and rebuilding the N×N map, rate trace and footprint views
	// from fresh allocations each time was the allocation hot spot of
	// closed-loop runs. Boundary snapshots alias these buffers (valid for
	// the duration of Policy.Observe); the public ad-hoc Snapshot still
	// allocates fresh views the caller may retain.
	scratchTCM      *tcm.Map
	scratchTrace    []core.RateChange
	scratchFoot     map[int]sticky.Footprint
	scratchFinished []bool
	scratchHealth   *gos.HealthSnapshot
	scratchServe    *workload.ServeStats

	err error // sticky configuration error, surfaced on first use
}

// AppliedAction is one executed policy decision.
type AppliedAction struct {
	Epoch  int
	At     sim.Time
	Action Action
	// Note records the outcome: "" means applied (for MigrateThread,
	// scheduled at the thread's next safe point — completed migrations
	// appear in MigrationEngine().History); otherwise why it was a no-op.
	Note string
}

// New builds a session. An invalid configuration (e.g. a scenario that does
// not validate against the cluster) is recorded as a sticky error returned
// by the first Launch/Step/Run call, keeping construction chainable.
func New(cfg Config) *Session {
	// Default only the missing pieces of the kernel config; a caller's
	// partial config (say, tracking mode without a node count) must not be
	// silently discarded wholesale.
	kcfg := cfg.Kernel
	def := gos.DefaultConfig()
	if kcfg.Nodes <= 0 {
		kcfg.Nodes = def.Nodes
	}
	if kcfg.Net == (network.Config{}) {
		kcfg.Net = def.Net
	}
	if kcfg.Costs == (gos.CostModel{}) {
		kcfg.Costs = def.Costs
	}
	s := &Session{cfg: cfg, phase: new(workload.Phase)}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(kcfg.Nodes); err != nil {
			s.err = fmt.Errorf("jessica2: invalid scenario: %w", err)
			return s
		}
	}
	s.k = gos.NewKernel(kcfg)
	if cfg.Scenario != nil {
		s.scripted = true
		cfg.Scenario.Apply(s.k, s.phase)
	}
	return s
}

// Kernel exposes the underlying DJVM (advanced use).
func (s *Session) Kernel() *gos.Kernel { return s.k }

// Phase exposes the workload phase register the scenario engine drives.
func (s *Session) Phase() *workload.Phase { return s.phase }

// Err returns the sticky configuration error, if any.
func (s *Session) Err() error { return s.err }

// Workloads returns the names of the launched workloads in launch order.
func (s *Session) Workloads() []string {
	names := make([]string, len(s.loads))
	for i, w := range s.loads {
		names[i] = w.Name()
	}
	return names
}

// Launch registers a workload's classes and spawns its threads. When a
// scenario drives the session and the caller installed no phase register of
// its own, the session's register rides along so phase-aware workloads
// follow the scenario's phase shifts.
func (s *Session) Launch(w workload.Workload, p workload.Params) error {
	if s.err != nil {
		return s.err
	}
	if s.started {
		return fmt.Errorf("%w: Launch must precede the first Step/Run", ErrStarted)
	}
	if p.Phase == nil && s.scripted {
		p.Phase = s.phase
	}
	// Open-loop workloads are schedule-driven: materialize the scenario's
	// arrival spec for them unless the caller installed a schedule already.
	if ol, ok := w.(workload.OpenLoop); ok {
		if !ol.HasSchedule() && s.cfg.Scenario != nil && s.cfg.Scenario.Arrivals != nil {
			ol.SetSchedule(s.cfg.Scenario.Arrivals.Schedule(s.cfg.Scenario.Seed))
		}
		if !ol.HasSchedule() {
			return fmt.Errorf("jessica2: open-loop workload %s has no arrival schedule (set Scenario.Arrivals or SetSchedule)", w.Name())
		}
		// A workload carrying serving-robustness configuration (e.g.
		// ServeMix.Robust) gets to reject it here, turning a bad config
		// into a launch error instead of a mid-run panic.
		if v, ok := w.(interface{ ValidateServing() error }); ok {
			if err := v.ValidateServing(); err != nil {
				return err
			}
		}
		s.openLoops = append(s.openLoops, ol)
	}
	seedTCM := false
	if len(s.loads) == 0 {
		// First launch: fix the fingerprint and resolve a pending warm
		// start against it. Later launches extend the fingerprint (so a
		// capture is honest about what ran) but never re-trigger loading —
		// a stored single-workload profile cannot speak for a composite
		// session.
		s.fp = profile.Fingerprint{
			Workload: w.Name(),
			Nodes:    s.k.NumNodes(),
			Threads:  p.Threads,
			Seed:     p.Seed,
		}
		if s.cfg.Scenario != nil {
			s.fp.Scenario = s.cfg.Scenario.Name
		}
		if ld := s.cfg.Profile.Load; ld != nil {
			if ld.Fingerprint.Match(s.fp) {
				s.loaded = ld
				s.loadedTCM = ld.TCM()
				// Warm placement: spawn threads at their profiled nodes.
				// The fingerprint match guarantees the stored assignment's
				// dimension; an explicit caller placement wins.
				if p.Placement == nil && len(ld.Assignment) == p.Threads {
					p.Placement = append([]int(nil), ld.Assignment...)
				}
				seedTCM = len(ld.TCMCells) > 0
			} else {
				s.loadWarning = fmt.Sprintf(
					"profile fingerprint mismatch: stored {%s} vs run {%s}; starting cold",
					ld.Fingerprint, s.fp)
			}
		}
	} else {
		s.fp.Workload += "," + w.Name()
		s.fp.Threads += p.Threads
	}
	w.Launch(s.k, p)
	if seedTCM {
		// Seed after the spawn so the master's builder sizes to the full
		// thread count. Seeding is uncharged prior knowledge.
		s.k.Master().SeedMap(s.loadedTCM)
		s.priorTCM = s.loadedTCM
	}
	s.loads = append(s.loads, w)
	return nil
}

// Fingerprint returns the run's profile fingerprint (valid after the first
// Launch).
func (s *Session) Fingerprint() profile.Fingerprint { return s.fp }

// LoadedProfile returns the accepted warm-start profile (nil when none was
// configured or the fingerprint did not match).
func (s *Session) LoadedProfile() *profile.Profile { return s.loaded }

// ProfileWarning reports why a configured Profile.Load was rejected (""
// when none was, or when it was accepted). A rejected load is a graceful
// cold start, not a session error.
func (s *Session) ProfileWarning() string { return s.loadWarning }

// AttachProfiling wires the profiling subsystems. Call after Launch and
// before the first step.
func (s *Session) AttachProfiling(cfg core.Config) (*core.Profiler, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.started {
		return nil, fmt.Errorf("%w: AttachProfiling must precede the first Step/Run", ErrStarted)
	}
	s.prof = core.Attach(s.k, cfg)
	return s.prof, nil
}

// Profiler returns the attached profiler (nil when none).
func (s *Session) Profiler() *core.Profiler { return s.prof }

// SetPolicy installs the closed-loop policy consulted at every epoch
// boundary. Must be called before the first step; nil clears it.
func (s *Session) SetPolicy(p Policy) error {
	if s.err != nil {
		return s.err
	}
	if s.started {
		return fmt.Errorf("%w: SetPolicy must precede the first Step/Run", ErrStarted)
	}
	s.policy = p
	return nil
}

// Policy returns the installed policy (nil when none).
func (s *Session) Policy() Policy { return s.policy }

// Actions returns the log of executed policy decisions.
func (s *Session) Actions() []AppliedAction {
	return append([]AppliedAction(nil), s.applied...)
}

// Epochs reports how many epoch boundaries have been processed.
func (s *Session) Epochs() int { return s.epoch }

// Done reports whether the simulation has run to completion.
func (s *Session) Done() bool { return s.done }

// Now returns the current virtual time.
func (s *Session) Now() sim.Time {
	if s.k == nil {
		return 0
	}
	return s.k.Eng.Now()
}

// ExecTime is the workload execution time; valid once Done.
func (s *Session) ExecTime() sim.Time { return s.execTime }

func (s *Session) checkStep() error {
	if s.err != nil {
		return s.err
	}
	// Advanced users may spawn threads on the kernel directly instead of
	// launching a packaged workload; only a truly empty session errors.
	if len(s.loads) == 0 && s.k.NumThreads() == 0 {
		return ErrNoWorkload
	}
	return nil
}

// Step advances the run by one epoch of the given length and processes the
// epoch boundary: incremental OAL flush (for profile-hungry policies), a
// snapshot, the policy's Observe, and the returned actions. It reports
// whether the run has completed; stepping a finished session is a no-op
// returning true.
func (s *Session) Step(epoch sim.Time) (bool, error) {
	if err := s.checkStep(); err != nil {
		return s.done, err
	}
	if s.done {
		return true, nil
	}
	if epoch <= 0 {
		return false, fmt.Errorf("jessica2: non-positive epoch %v", epoch)
	}
	s.started = true
	if s.k.RunUntil(s.k.Eng.Now() + epoch) {
		s.finish()
		return true, nil
	}
	s.boundary()
	return false, nil
}

// RunUntil advances the run to absolute virtual time t. With a policy
// installed and a configured Epoch, boundaries are processed every Epoch on
// the way; otherwise the stretch runs unsupervised. Reports completion.
func (s *Session) RunUntil(t sim.Time) (bool, error) {
	if err := s.checkStep(); err != nil {
		return s.done, err
	}
	if s.done {
		return true, nil
	}
	s.started = true
	step := s.cfg.Epoch
	if s.policy == nil || step <= 0 {
		step = t - s.k.Eng.Now()
		if step <= 0 {
			return false, nil
		}
	}
	for s.k.Eng.Now() < t {
		next := s.k.Eng.Now() + step
		if next > t {
			next = t
		}
		if s.k.RunUntil(next) {
			s.finish()
			return true, nil
		}
		s.boundary()
	}
	return false, nil
}

// Run executes the session to completion and returns the workload execution
// time. With a policy installed it steps in Config.Epoch increments (an
// installed policy with no configured epoch is an error); without one it
// runs straight through. Running a finished session returns ErrFinished.
func (s *Session) Run() (sim.Time, error) {
	if err := s.checkStep(); err != nil {
		return 0, err
	}
	if s.done {
		return s.execTime, ErrFinished
	}
	s.started = true
	if s.policy != nil && s.cfg.Epoch <= 0 {
		return 0, errors.New("jessica2: policy installed but Config.Epoch is zero; use Step or set an epoch")
	}
	for !s.done {
		if s.policy == nil {
			s.k.Eng.Run()
			s.finish()
			break
		}
		if _, err := s.Step(s.cfg.Epoch); err != nil {
			return 0, err
		}
	}
	return s.execTime, nil
}

// finish records completion and drains the remaining OAL buffers, exactly
// as the classic one-shot Run path did.
func (s *Session) finish() {
	s.done = true
	s.execTime = s.k.WorkloadEndTime()
	s.k.FlushAllOAL()
}

// boundary processes one epoch boundary: flush, snapshot, observe, act.
// Passive policies (NeedsProfile false) leave the protocol completely
// untouched, which keeps the run byte-identical to an unsupervised one.
func (s *Session) boundary() {
	s.epoch++
	if s.policy == nil {
		return
	}
	wantProfile := s.policy.NeedsProfile()
	if wantProfile {
		// Incremental cluster-wide OAL flush: node 0 ingests locally and is
		// visible in this epoch's snapshot; remote shipments arrive within
		// the next epoch — the one-epoch profile lag of a real collector.
		s.k.FlushAllOAL()
	}
	snap := s.snapshot(wantProfile, true)
	for _, a := range s.policy.Observe(snap) {
		if a == nil {
			continue
		}
		note := a.apply(s)
		s.applied = append(s.applied, AppliedAction{
			Epoch: s.epoch, At: s.k.Eng.Now(), Action: a, Note: note,
		})
	}
}

// Snapshot captures the live profiling state at the current pause point.
// It never charges simulated CPU: observing a paused run does not change
// it. The hot-object list reports objects newly shared since the previous
// epoch boundary without consuming them (only boundary snapshots mark hot
// objects as surfaced).
func (s *Session) Snapshot() *Snapshot {
	if s.k == nil {
		return &Snapshot{Divergence: -1}
	}
	return s.snapshot(true, false)
}

// snapshot builds the state view at the current pause point. Boundary
// snapshots (handed transiently to Policy.Observe) reuse the session's
// scratch buffers; ad-hoc snapshots allocate fresh views the caller may
// keep.
func (s *Session) snapshot(wantProfile, boundary bool) *Snapshot {
	k := s.k
	n := k.NumThreads()
	var finished []bool
	if boundary {
		if cap(s.scratchFinished) < n {
			s.scratchFinished = make([]bool, n)
		}
		finished = s.scratchFinished[:n]
	} else {
		finished = make([]bool, n)
	}
	snap := &Snapshot{
		Now:        k.Eng.Now(),
		Epoch:      s.epoch,
		Done:       s.done,
		Nodes:      k.NumNodes(),
		Threads:    n,
		Assignment: balancer.Assignment(k.Assignment()),
		Finished:   finished,
		Kernel:     k.Stats(),
		Network:    k.Net.Stats(),
	}
	for i := 0; i < n; i++ {
		snap.Finished[i] = k.Thread(i).Finished()
	}
	// Cluster health rides along when the failure layer is on (nil
	// otherwise, so failure-unaware policies never see the field move).
	if boundary {
		if h := k.HealthInto(s.scratchHealth); h != nil {
			s.scratchHealth, snap.Health = h, h
		}
	} else {
		snap.Health = k.HealthInto(nil)
	}
	// Open-loop serving stats ride along only when an open-loop workload is
	// launched (nil otherwise, keeping closed-loop snapshots untouched).
	if len(s.openLoops) > 0 {
		if boundary {
			s.scratchServe = s.openLoops[0].ServeStatsInto(s.scratchServe, snap.Now)
			snap.Serve = s.scratchServe
		} else {
			snap.Serve = s.openLoops[0].ServeStatsInto(nil, snap.Now)
		}
	}
	if s.prof != nil {
		if boundary {
			s.scratchTrace, s.scratchFoot = s.prof.LiveViewsInto(s.scratchTrace, s.scratchFoot)
			snap.RateTrace, snap.Footprints = s.scratchTrace, s.scratchFoot
		} else {
			snap.RateTrace, snap.Footprints = s.prof.LiveViews()
		}
	}
	snap.Divergence = -1
	if !wantProfile {
		return snap
	}
	if boundary {
		snap.TCM = k.Master().PeekInto(s.scratchTCM, n)
		s.scratchTCM = snap.TCM
	} else {
		snap.TCM = k.Master().Peek(n)
	}
	if s.loaded != nil {
		snap.Divergence = profile.EvidenceDivergence(snap.TCM, s.priorTCM, s.loadedTCM)
	}
	snap.Hot = s.hotObjects(boundary)
	return snap
}

// hotObjects extracts the newly shared objects from the master's daemon:
// objects accessed by at least two threads that previous boundaries have
// not already surfaced. Boundary snapshots consume (mark) them; ad-hoc
// snapshots only peek. The builder feeds this O(new) from its pending
// list — per-epoch cost scales with the objects that *became* shared since
// the last boundary, not with all M objects ever ingested.
func (s *Session) hotObjects(consume bool) []HotObject {
	var hot []HotObject
	s.k.Master().VisitNewlyShared(consume, func(key int64, volume float64, threads []int32) bool {
		if s.hotSeen[key] {
			return true // surfaced at an earlier boundary: retire silently
		}
		o := s.k.Reg.Object(heap.ObjectID(key))
		if o == nil {
			return false // unknown to the registry (yet): keep pending
		}
		if consume {
			if s.hotSeen == nil {
				s.hotSeen = make(map[int64]bool)
			}
			s.hotSeen[key] = true
		}
		hot = append(hot, HotObject{
			Object:  o.ID,
			Home:    o.Home,
			Bytes:   o.Bytes(),
			Volume:  volume,
			Threads: append([]int32(nil), threads...),
		})
		return consume
	})
	// Visits arrive sorted by key (allocation order), which is
	// deterministic and groups co-allocated hot ranges.
	return hot
}

// Finished returns nil once the run has completed: ErrNotFinished while
// still in progress, or the sticky configuration error.
func (s *Session) Finished() error {
	if err := s.checkStep(); err != nil {
		return err
	}
	if !s.done {
		return ErrNotFinished
	}
	return nil
}

// NetworkStats aliases network.Stats for snapshot consumers.
type NetworkStats = network.Stats

// MigrationEngine returns (creating on first use) the engine that executes
// this session's thread migrations, with its outcome history.
func (s *Session) MigrationEngine() *migration.Engine {
	if s.mig == nil {
		s.mig = migration.NewEngine(s.k, migration.DefaultConfig())
	}
	return s.mig
}

// TCMNow builds the correlation map from everything the master has ingested,
// charging analyzer CPU (the classic Report.TCM path).
func (s *Session) TCMNow() *tcm.Map {
	m, _ := s.k.TCM()
	return m
}

// CapturedProfile assembles the end-of-run artifact: the final correlation
// map, thread placement, hot-object homes, sticky footprints, rate trace and
// decision log, stamped with the run's fingerprint. It requires a completed
// session with Config.Profile.Save armed. Capture only reads state —
// uncharged peeks, no simulated CPU — so a Save-armed run stays
// byte-identical to an unarmed one (the profile golden-identity gate).
func (s *Session) CapturedProfile() (*profile.Profile, error) {
	if err := s.checkStep(); err != nil {
		return nil, err
	}
	if !s.cfg.Profile.Save {
		return nil, errors.New("jessica2: profile capture not armed (set Config.Profile.Save)")
	}
	if !s.done {
		return nil, ErrNotFinished
	}
	n := s.k.NumThreads()
	p := &profile.Profile{
		Fingerprint: s.fp,
		TCMThreads:  n,
		TCMCells:    s.k.Master().Peek(n).AppendFixedCells(make([]int64, 0, n*n)),
		Assignment:  s.k.Assignment(),
	}
	// Hot-object homes: every object the daemon observed as shared by at
	// least two threads, with its final home (Summary is key-sorted, so the
	// list is too — HomeOf binary-searches it).
	for _, o := range s.k.Master().Summary().Objs {
		if len(o.Threads) < 2 {
			continue
		}
		obj := s.k.Reg.Object(heap.ObjectID(o.Key))
		if obj == nil {
			continue
		}
		p.HotHomes = append(p.HotHomes, profile.HotHome{Key: o.Key, Home: int32(obj.Home)})
	}
	if s.prof != nil {
		trace, foot := s.prof.LiveViews()
		for _, rc := range trace {
			p.RateTrace = append(p.RateTrace, profile.RateChange{
				At: rc.At, From: rc.From, To: rc.To,
				Distance: rc.Distance, Converged: rc.Converged,
				Resampled: int32(rc.Resampled),
			})
		}
		// Maps are sorted at capture time (threads, then class names) so
		// encoding a profile is a pure function of its contents.
		threads := make([]int, 0, len(foot))
		for t := range foot {
			threads = append(threads, t)
		}
		sort.Ints(threads)
		for _, t := range threads {
			tf := profile.ThreadFootprint{Thread: int32(t)}
			classes := make([]string, 0, len(foot[t]))
			for c := range foot[t] {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				tf.Classes = append(tf.Classes, profile.ClassBytes{Class: c, Bytes: foot[t][c]})
			}
			p.Footprints = append(p.Footprints, tf)
		}
	}
	for _, aa := range s.applied {
		if aa.Note != "" {
			continue // no-ops carry no placement knowledge
		}
		d := profile.Decision{Epoch: int32(aa.Epoch), At: aa.At}
		switch a := aa.Action.(type) {
		case MigrateThread:
			d.Kind, d.A, d.B = profile.DecisionMigrateThread, int64(a.Thread), int64(a.To)
		case RehomeObject:
			d.Kind, d.A, d.B = profile.DecisionRehomeObject, int64(a.Object), int64(a.To)
		case SetSamplingRate:
			d.Kind, d.A = profile.DecisionSetRate, int64(a.Rate)
		default:
			continue
		}
		p.Decisions = append(p.Decisions, d)
	}
	return p, nil
}
