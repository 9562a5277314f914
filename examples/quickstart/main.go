// Quickstart: run the SOR kernel on a simulated 8-node distributed JVM
// with full-sampling correlation tracking, then print the run report and
// the thread correlation map. This is the smallest end-to-end use of the
// public API.
package main

import (
	"fmt"

	"jessica2"
)

func main() {
	// An 8-node cluster mirroring the paper's testbed, with the paper's
	// sampled correlation tracking enabled.
	sess := jessica2.NewSession(jessica2.DefaultConfig())

	// The red-black SOR kernel at a quarter of the paper's dataset so the
	// example finishes in a blink; drop these overrides for paper scale.
	sor := jessica2.NewSOR()
	sor.RowsN, sor.Cols, sor.Iters = 512, 512, 4

	if err := sess.Launch(sor, jessica2.Params{Threads: 8, Seed: 1}); err != nil {
		panic(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		panic(err)
	}

	// With no policy installed, Run executes the workload as one epoch.
	rep, err := sess.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println(rep)

	// The thread correlation map: SOR's near-neighbour sharing shows as a
	// band along the diagonal — thread i shares block-boundary rows with
	// threads i−1 and i+1 only.
	fmt.Println("thread correlation map (near-neighbour band expected):")
	fmt.Println(rep.TCM())

	// Accuracy of a coarser sampling rate against this full profile could
	// now be measured with jessica2.DistanceABS; see examples/nbody for
	// the adaptive controller doing that automatically.
}
