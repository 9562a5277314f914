package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/tcm"
)

// digest hashes a repetition's simulated outputs in a fixed order. Equal
// digests mean byte-identical simulated results, so a change that only
// claims speed shows the same digest on its parent and on itself.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add writes one labelled value; %+v prints floats in their shortest exact
// form, so equal bits give equal text.
func (d *digest) add(label string, v any) { fmt.Fprintf(d.h, "%s=%+v\n", label, v) }

// addMap writes a correlation map cell by cell as IEEE-754 bits.
func (d *digest) addMap(label string, m *tcm.Map) {
	if m == nil {
		d.add(label, "nil")
		return
	}
	d.add(label+".n", m.N())
	var buf [8]byte
	for _, bits := range m.AppendCellBits(nil) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		d.h.Write(buf[:])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// addKernel accumulates one kernel's public counters into the per-layer
// metric map (summed over the cells of a sweep).
func addKernel(m map[string]float64, ks gos.KernelStats, ns network.Stats, fs gos.FailureStats) {
	m["gos.checks"] += float64(ks.Checks)
	m["gos.faults"] += float64(ks.Faults)
	m["gos.fault_kb"] += float64(ks.FaultBytes) / 1024
	m["gos.intervals"] += float64(ks.Intervals)
	m["gos.oal_entries"] += float64(ks.OALEntries)
	m["gos.oal_wire_kb"] += float64(ks.OALWireBytes) / 1024
	m["gos.resampled_objs"] += float64(ks.ResampledObjs)
	m["gos.lock_acquires"] += float64(ks.LockAcquires)
	m["gos.barriers"] += float64(ks.Barriers)
	m["gos.diff_messages"] += float64(ks.DiffMessages)
	m["gos.home_migrations"] += float64(ks.HomeMigrations)
	m["gos.heartbeats_sent"] += float64(fs.HeartbeatsSent)
	m["gos.lease_expiries"] += float64(fs.LeaseExpiries)
	m["gos.evacuations"] += float64(fs.Evacuations)
	m["gos.lock_failovers"] += float64(fs.LockFailovers)
	m["gos.lock_reclaims"] += float64(fs.LockReclaims)
	var msgs int64
	for _, n := range ns.Messages {
		msgs += n
	}
	m["net.messages"] += float64(msgs)
	m["net.kb"] += float64(ns.TotalBytes()) / 1024
	m["net.oal_kb"] += float64(ns.CatBytes(network.CatOAL)) / 1024
	m["net.dropped"] += float64(ns.Dropped)
}

// addBuildCost accumulates a TCM build's cost counters.
func addBuildCost(m map[string]float64, c tcm.BuildCost) {
	m["tcm.entries"] += float64(c.Entries)
	m["tcm.objects"] += float64(c.Objects)
	m["tcm.pair_adds"] += float64(c.PairAdds)
	m["tcm.dropped_entries"] += float64(c.DroppedEntries)
}

// digestKernel writes one kernel's counters into the digest.
func digestKernel(d *digest, label string, ks gos.KernelStats, ns network.Stats, fs gos.FailureStats) {
	d.add(label+".kernel", ks)
	d.add(label+".net", ns)
	d.add(label+".failure", fs)
}
