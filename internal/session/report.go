package session

import (
	"fmt"
	"strings"

	"jessica2/internal/balancer"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// Report gives access to a completed run's results (Session.Run and
// Session.Report return it).
type Report struct {
	s *Session
}

// ExecTime is the workload execution time (paper tables' metric).
func (r *Report) ExecTime() sim.Time { return r.s.ExecTime() }

// TCM builds the thread correlation map from all collected OALs, charging
// the master analyzer's CPU.
func (r *Report) TCM() *tcm.Map {
	m, _ := r.s.k.TCM()
	return m
}

// KernelStats returns protocol/profiling counters.
func (r *Report) KernelStats() gos.KernelStats { return r.s.k.Stats() }

// NetworkStats returns per-category traffic stats.
func (r *Report) NetworkStats() network.Stats { return r.s.k.Net.Stats() }

// OALBytes is profiling traffic volume.
func (r *Report) OALBytes() int64 { return r.s.k.Net.Stats().CatBytes(network.CatOAL) }

// GOSBytes is protocol traffic volume (data + control + headers).
func (r *Report) GOSBytes() int64 { return r.s.k.Net.Stats().GOSBytes() }

// TCMComputeTime is the master analyzer's CPU (dedicated machine).
func (r *Report) TCMComputeTime() sim.Time { return r.s.k.Master().ComputeTime() }

// HomeAffinity exports the thread×node shared-volume matrix (the "home
// effect" input for home-aware placement planning).
func (r *Report) HomeAffinity() [][]float64 {
	k := r.s.k
	return k.Master().HomeAffinity(k.NumThreads(), k.NumNodes())
}

// AdviseHomeMigrations recommends object re-homings from the collected
// correlation state: objects whose accessors all run on one node, homed
// elsewhere, should move there.
func (r *Report) AdviseHomeMigrations(assignment balancer.Assignment, minBytes int) []gos.HomeMove {
	k := r.s.k
	return k.AdviseHomes(k.Master().Summary(), assignment, minBytes)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	st := r.KernelStats()
	names := make([]string, len(r.s.loads))
	for i, w := range r.s.loads {
		names[i] = w.Name()
	}
	fmt.Fprintf(&sb, "workloads:         %s\n", strings.Join(names, ", "))
	fmt.Fprintf(&sb, "execution time:    %v\n", r.ExecTime())
	fmt.Fprintf(&sb, "intervals:         %d\n", st.Intervals)
	fmt.Fprintf(&sb, "remote faults:     %d (%d KB)\n", st.Faults, st.FaultBytes/1024)
	fmt.Fprintf(&sb, "correlation logs:  %d\n", st.CorrelationLogs)
	fmt.Fprintf(&sb, "barriers/locks:    %d / %d\n", st.Barriers, st.LockAcquires)
	fmt.Fprintf(&sb, "OAL traffic:       %d KB\n", r.OALBytes()/1024)
	fmt.Fprintf(&sb, "GOS traffic:       %d KB\n", r.GOSBytes()/1024)
	fmt.Fprintf(&sb, "TCM compute time:  %v\n", r.TCMComputeTime())
	return sb.String()
}
