// Pipeline example: a lock-based producer/consumer workload written
// against the public API, showing how correlation tracking exposes the
// pipeline's stage structure and how the balancer collocates the pairs
// that share queues.
//
// Threads form producer→consumer pairs communicating through shared
// buffer objects guarded by distributed locks. The spawn-order placement
// splits pairs across nodes; the TCM makes the pairing obvious and the
// balancer plan reunites them.
package main

import (
	"fmt"

	"jessica2"
)

// pipelineWorkload wires p.Threads/2 producer-consumer pairs.
type pipelineWorkload struct {
	itemsPerRound int
	rounds        int
}

func (w *pipelineWorkload) Name() string { return "pipeline" }

func (w *pipelineWorkload) Characteristics() jessica2.Characteristics {
	return jessica2.Characteristics{
		Name: w.Name(), DataSet: fmt.Sprintf("%d items/round", w.itemsPerRound),
		Rounds: w.rounds, Granularity: "Fine", ObjectSize: "256 bytes",
	}
}

func (w *pipelineWorkload) Launch(k *jessica2.Kernel, p jessica2.Params) {
	bufC := k.Reg.DefineClass("Buffer", 256, 0)
	mRun := &jessica2.Method{Name: "pipeline.run"}

	pairs := p.Threads / 2
	// One shared buffer ring per pair, allocated by the producer.
	buffers := make([][]*jessica2.Object, pairs)

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		pair := tid / 2
		producer := tid%2 == 0
		// Deliberately adversarial placement: producers on the first
		// nodes, consumers on the last — every pair is split.
		node := pair % k.NumNodes()
		if !producer {
			node = k.NumNodes() - 1 - pair%k.NumNodes()
		}
		k.SpawnThread(node, fmt.Sprintf("stage-%d", tid), func(t *jessica2.Thread) {
			f := t.Stack.Push(mRun, 1)
			if producer {
				ring := make([]*jessica2.Object, 8)
				for i := range ring {
					ring[i] = t.Alloc(bufC)
					t.Write(ring[i])
				}
				buffers[pair] = ring
				f.SetRef(0, ring[0])
			}
			t.Barrier(0, p.Threads)
			ring := buffers[pair]
			lock := 100 + pair

			for round := 0; round < w.rounds; round++ {
				for i := 0; i < w.itemsPerRound; i++ {
					slot := ring[i%len(ring)]
					t.Acquire(lock)
					if producer {
						t.Write(slot) // fill the item
					} else {
						t.Read(slot) // drain the item
					}
					t.Compute(20 * jessica2.Microsecond)
					t.Release(lock)
				}
				t.Barrier(0, p.Threads)
			}
			t.Stack.Pop()
		})
	}
}

func main() {
	const threads = 8
	cfg := jessica2.DefaultConfig()
	cfg.Nodes = 4
	sess := jessica2.NewSession(cfg)
	w := &pipelineWorkload{itemsPerRound: 64, rounds: 6}
	if err := sess.Launch(w, jessica2.Params{Threads: threads, Seed: 3}); err != nil {
		panic(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		panic(err)
	}

	rep, err := sess.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println(rep)

	m := rep.TCM()
	fmt.Println("correlation map (pair structure: threads 2k and 2k+1 share):")
	fmt.Println(m)

	// The workload placed each pair on different nodes; the balancer
	// should reunite them.
	cur := make(jessica2.Assignment, threads)
	for tid := range cur {
		pair := tid / 2
		if tid%2 == 0 {
			cur[tid] = pair % cfg.Nodes
		} else {
			cur[tid] = cfg.Nodes - 1 - pair%cfg.Nodes
		}
	}
	next, moves := jessica2.PlanPlacement(m, cur, cfg.Nodes)
	fmt.Printf("balancer: cross-node volume %.0f B -> %.0f B\n",
		jessica2.CrossVolume(m, cur), jessica2.CrossVolume(m, next))
	for _, mv := range moves {
		fmt.Printf("  %v\n", mv)
	}
}
