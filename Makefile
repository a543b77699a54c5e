GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz-smoke diffcheck chaos smp golden-update bench bench-vm bench-smp bench-smoke bench-guard ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short bounded run of every fuzz target; regression corpora under
# testdata/fuzz/ always run as part of plain `make test`.
fuzz-smoke:
	$(GO) test ./internal/isa -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAsmRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzMoviExpansion$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jsonlog -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime $(FUZZTIME)

# Differential-execution checks over generated guest programs plus
# sampling-policy determinism (see internal/check and cmd/diffcheck).
# -batch adds the event-batch invariance sweep: every program and
# policy re-run across batch capacities {1,3,64,4096}, bit-identical.
# -faults adds the fault-equivalence sweep: rendered artifacts must be
# byte-identical to a fault-free run under seeded fault injection.
# -obs adds the observability-invariance sweep: results and artifacts
# must be identical with the metrics registry and trace attached.
# -sweep adds the sweep-equivalence check: a distributed multi-worker
# sweep (with seeded worker kills and network faults) must produce a
# merged journal byte-identical to sequential execution.
# -stats adds the statistical-validity check: the Stratified/RankedSet
# confidence intervals must deliver their claimed coverage against
# full-timing ground truth, stay seed-deterministic through the
# journal, and honour the error-targeting budget/width contract
# (reduced seed sweep here; CI's statistical-validity job runs the
# full design).
diffcheck:
	$(GO) run ./cmd/diffcheck -seed 1 -n 200 -batch -faults -obs -sweep -stats -stats-runs 25

# Chaos-schedule exploration: CHAOS_SCHEDULES seeded fault schedules
# (coordinator SIGKILL/restart at arbitrary WAL offsets with torn
# tails, worker kills, network/disk faults), each a full distributed
# sweep whose merged journal must render byte-identical artifacts with
# exactly-once accounting (see internal/chaos).
CHAOS_SCHEDULES ?= 8
chaos:
	$(GO) run ./cmd/diffcheck -n 0 -mode lockstep -chaos -chaos-schedules $(CHAOS_SCHEDULES)

# Parallel-SMP equivalence: the goroutine-per-guest barrier schedule
# must be byte-identical to the sequential round-robin reference across
# guest counts, rendezvous quanta (including quantum 1), and GOMAXPROCS
# settings, on the fast, timed, and DynamicSample paths. The race leg
# re-runs the smp/timing/cache suites and the harness under the race
# detector to prove the rendezvous and shared-L2 replay pipeline are
# data-race free.
smp:
	$(GO) test -race -count=1 ./internal/smp ./internal/timing ./internal/cache
	$(GO) test -race -count=1 -timeout 20m ./internal/check -run TestSMPEquivalence
	$(GO) run ./cmd/diffcheck -n 0 -mode lockstep -smp

golden-update:
	$(GO) test ./internal/experiments -run TestGolden -update

# Cold/warm checkpoint-store wall-clock comparison (writes BENCH_pr2.json
# at the repo root), then the full go benchmark suite.
bench:
	$(GO) run ./cmd/ckptbench -o BENCH_pr2.json
	$(GO) test -run '^$$' -bench . -benchmem .

# Interpreter throughput report: MIPS for fast / event / detail modes
# and an end-to-end RunAll sweep, vs the recorded pre-batching baseline
# (writes BENCH_pr3.json at the repo root).
bench-vm:
	$(GO) run ./cmd/vmbench -o BENCH_pr3.json

# Parallel-SMP wall-clock speedup report: sequential vs parallel
# schedule for a 4-guest system in fast mode (writes BENCH_pr10.json at
# the repo root). The -min-speedup guard arms itself only on hosts with
# at least as many CPUs as guests.
bench-smp:
	$(GO) run ./cmd/smpbench -guests 4 -min-speedup 1.5 -o BENCH_pr10.json

# Bounded benchmark sanity pass for CI: tiny scale, one iteration, and
# the ckptbench/vmbench reports to stdout instead of files.
bench-smoke:
	$(GO) run ./cmd/ckptbench -scale 2000 -bench gzip,mcf -o -
	$(GO) run ./cmd/vmbench -time 200ms -runs 1 -o -
	REPRO_SCALE=500 $(GO) test -run '^$$' \
		-bench 'BenchmarkRunner(Cold|Warm)Cache|BenchmarkSnapshotEncode|BenchmarkVM(Fast|Event)Mode|BenchmarkRunAllEndToEnd' -benchtime 1x .

# Throughput regression guard: re-measure the interpreter and fail if
# any mode lands more than 15% below the latest recorded BENCH report.
# The baseline is the vmbench report (one with a "current" interpreter
# section) with the highest PR number, compared as a number: a lexical
# sort would put BENCH_pr10 before BENCH_pr8.
# vmbench disarms the guard itself on starved hosts (GOMAXPROCS < 2),
# the same gate the sweep smoke test uses, because one-core shared
# runners produce throughput noise far beyond real regression signal.
BENCH_BASELINE ?= $(shell grep -l '"current"' BENCH_pr*.json | sort -t_ -k2.3n | tail -n 1)
bench-guard:
	$(GO) run ./cmd/vmbench -time 500ms -runs 2 -o - \
		-baseline-file $(BENCH_BASELINE) -max-regress 15 >/dev/null

ci: vet build race fuzz-smoke diffcheck
