# BENCH is the djvmbench JSON artifact path; override per PR:
#   make bench BENCH=BENCH_2.json
BENCH ?= BENCH_current.json
# SCALE divides the paper datasets (1 = paper scale, 8 = CI-friendly).
SCALE ?= 8

.PHONY: verify build vet test test-race figures test-chaos test-serve test-overload test-profile test-dispatch bench bench-seq demo-closedloop demo-serve clean

verify: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# test-race reruns the suite under the race detector (CI's second job);
# it also re-executes the golden-trace determinism tests.
test-race:
	go test -race ./...

# figures regenerates the four figures that double as assertions and exits
# non-zero on any violated claim: Figure R (recovery strictly beats
# no-recovery and one-shot placement on every crash schedule), Figure T
# (closed-loop placement strictly beats nop and one-shot on P99 on every
# arrival schedule), Figure G (the full protection stack strictly beats
# no-protection and shed-only on SLO goodput AND P99 on every failure
# schedule) and Figure W (warm start strictly cuts convergence epochs and
# profiling charge with quality inside the epsilons).
figures:
	go run ./cmd/djvmbench -fig FigR,FigT,FigG,FigW -scale $(SCALE)

# test-chaos is the failure-injection gauntlet: the golden determinism
# suite under the crash/flaky/partition presets with and without the
# recovery layer (same-seed runs must stay byte-identical under failure
# injection) and the injection-off byte-identity gate (reports unchanged
# when no failure events are configured), with the race detector on. The
# Figure R assertion runs in `make figures`.
test-chaos:
	go test -race -count=1 -run 'Chaos|InjectionDisabled|GoldenTrace|FigR|Failure|Flush|Lease|Heartbeat|Fuzz|Crash|Intercept|Shaper' . ./internal/gos/ ./internal/experiments/ ./internal/scenario/ ./internal/network/ ./internal/dispatch/

# test-dispatch is the distributed-dispatcher gauntlet: the wire-codec
# round-trip and typed-error tests, the lease-fencing and failure-injection
# suite (hung worker, restarted worker, corrupt results, fleet death), the
# loopback identity gate (a dispatched batch must be byte-identical to the
# sequential baseline), and the SIGKILL chaos test over real worker
# processes — all under the race detector — then a djvmbench -workers smoke
# against two local djvmworker processes with output byte-compared to the
# local run.
test-dispatch:
	go test -race -count=1 ./internal/dispatch/
	go build -o /tmp/j2_djvmworker ./cmd/djvmworker
	set -e; \
	/tmp/j2_djvmworker -listen 127.0.0.1:0 -quiet > /tmp/j2_w1.addr & P1=$$!; \
	/tmp/j2_djvmworker -listen 127.0.0.1:0 -quiet > /tmp/j2_w2.addr & P2=$$!; \
	trap "kill $$P1 $$P2 2>/dev/null" EXIT; \
	sleep 1; \
	W1=$$(sed 's/djvmworker listening on //' /tmp/j2_w1.addr); \
	W2=$$(sed 's/djvmworker listening on //' /tmp/j2_w2.addr); \
	go run ./cmd/djvmbench -fig Table2 -scale $(SCALE) -workers "$$W1,$$W2" | grep -v '^-- regenerated' > /tmp/j2_dist.txt; \
	go run ./cmd/djvmbench -fig Table2 -scale $(SCALE) | grep -v '^-- regenerated' > /tmp/j2_local.txt; \
	diff -u /tmp/j2_dist.txt /tmp/j2_local.txt && echo "dispatch identity: OK"
	rm -f /tmp/j2_djvmworker /tmp/j2_w1.addr /tmp/j2_w2.addr /tmp/j2_dist.txt /tmp/j2_local.txt

# test-serve is the open-loop traffic gauntlet: ServeMix golden determinism,
# arrival-stream property tests and the latency-ledger sort oracle under the
# race detector. The Figure T assertion runs in `make figures`.
test-serve:
	go test -race -count=1 -run 'ServeMix|ServeLedger|Arrivals|FigT|Controller' . ./internal/workload/ ./internal/scenario/ ./internal/experiments/ ./internal/sampling/

# test-overload is the serving-robustness gauntlet: the preset × protection
# determinism grid and the robust-off golden gate (Snapshot.Serve must be
# byte-identical to the pre-layer golden when the layer is off), the robust
# dispatcher and lock-failover suites — all under the race detector — then
# the `-recover -app serve` end-to-end smoke. The Figure G assertion runs
# in `make figures`.
test-overload:
	go test -race -count=1 -run 'Overload|FigG|Robust|ServeMix|LockManager|LockReclaim|Protect|RecoverServe' . ./internal/workload/ ./internal/gos/ ./internal/experiments/ ./cmd/djvmrun/
	go run ./cmd/djvmrun -app serve -scenario crash+burst -recover -nodes 4 -threads 8 -rate off -tcm=false

# test-profile is the profile-store gauntlet: the codec round-trip,
# corruption and fuzz-corpus tests, the warm-start policy and session
# integration suite (fingerprint mismatch, Save-armed golden identity)
# under the race detector, then a djvmrun -profile-out -> -profile-in round
# trip through a scratch file. The Figure W assertion runs in
# `make figures`.
test-profile:
	go test -race -count=1 -run 'Profile|WarmStart|FigW|Divergence|SeedMap|FixedCells' . ./internal/profile/ ./internal/session/ ./internal/tcm/ ./internal/experiments/ ./cmd/djvmrun/ ./cmd/tcmviz/
	go run ./cmd/djvmrun -app kv -scenario phased -policy rebalance -epoch 10ms -tcm=false -profile-out /tmp/j2_ci_kv.j2pf
	go run ./cmd/djvmrun -app kv -scenario phased -policy warmstart -epoch 10ms -tcm=false -profile-in /tmp/j2_ci_kv.j2pf
	go run ./cmd/tcmviz -profile /tmp/j2_ci_kv.j2pf
	rm -f /tmp/j2_ci_kv.j2pf

# bench runs the Go benchmarks (allocs/op is the regression metric; see
# EXPERIMENTS.md) and writes the machine-readable djvmbench report. The
# experiment regenerations fan out over the parallel runner (GOMAXPROCS
# workers); results are byte-identical to sequential, only wall-clock moves.
bench:
	go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/djvmbench -benchjson $(BENCH) -scale $(SCALE)

# bench-seq captures perf artifacts on one worker (jobs inline, in
# submission order), for baselines and for machines where fan-out would
# only add scheduler noise.
bench-seq:
	JESSICA2_PARALLEL=1 go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/djvmbench -benchjson $(BENCH) -scale $(SCALE) -parallel 1

# demo-closedloop runs the closed-loop session demo: KVMix under the phased
# scenario, rebalance policy over 8 epochs, baseline vs closed-loop exec
# times printed head to head (see EXPERIMENTS.md, Figure CL).
demo-closedloop:
	go run ./cmd/djvmrun -app kv -scenario phased -policy rebalance -epochs 8 -tcm=false

# demo-serve runs the open-loop serving demo: ServeMix under the diurnal
# arrival schedule, rebalance policy at 125 ms epochs, goodput and
# P50/P95/P99 tail latency in the report (see EXPERIMENTS.md, Figure T).
demo-serve:
	go run ./cmd/djvmrun -app serve -nodes 4 -scenario diurnal -policy rebalance -epoch 125ms -tcm=false

clean:
	rm -f BENCH_current.json
