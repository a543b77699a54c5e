// Command diffcheck runs the differential-execution and invariant
// checks in internal/check against seeded random guest programs and
// against the sampling policies.
//
// Usage:
//
//	diffcheck [-seed N] [-n COUNT] [-chunk C] [-mode MODE] [-scale S] [-bench LIST] [-v]
//
// Modes:
//
//	all        every program-level check per seed, then policy determinism
//	lockstep   fast-mode vs event-mode lockstep differencing only
//	snapshot   snapshot/restore round-trip check only
//	serialize  serialized (WriteTo/ReadSnapshot) round-trip check only
//	replay     same-partitioning replay determinism only
//	chunks     chunk-partitioning agreement only
//	policies   sampling-policy determinism only (no generated programs)
//
// The policy checks make one check.PolicyEquivalence call per
// benchmark: every policy runs once as the reference and once per
// selected variant — a replay always, plus the variants -ckpt, -batch,
// and -obs add — and every variant's Result must be bit-identical to
// the reference's, field by field.
//
// The -ckpt flag additionally replays every policy with the checkpoint
// store attached cold and then warmed, requiring bit-identical results
// each time and a store that took deposits and served hits (the
// cache-equivalence check).
//
// The -batch flag additionally runs the batch-invariance checks: each
// generated program is re-run per event-batch capacity against a
// one-event-per-batch reference, and every sampling policy is replayed
// across the capacities in check.BatchSizes, all required to be
// bit-identical (the batched event pipeline must be invisible).
//
// The -sweep flag additionally runs the sweep-equivalence check: a
// distributed coordinator/worker sweep under seeded worker kills and
// remote-tier network faults must produce artifacts and a merged
// journal byte-identical to the sequential run, with exactly-once
// accounting. -sweep-workers narrows the worker-count matrix
// (comma-separated); check.SweepOptions derives the seeds and required
// fault kinds of a narrowed matrix from it.
//
// The -faults flag additionally runs the fault-equivalence check: the
// experiment runner is driven under several seeded fault-injection
// schedules (disk I/O errors, torn and corrupted checkpoints,
// measurement panics, hangs, and transient errors) and its rendered
// artifacts must be byte-identical to a fault-free run.
//
// The -chaos flag additionally runs the chaos-schedule exploration:
// -chaos-schedules seeded fault schedules (worker kills at arbitrary
// deliveries, coordinator SIGKILL/restart at arbitrary write-ahead-log
// offsets with torn WAL tails, network and disk faults), each a full
// distributed sweep whose merged journal must render artifacts
// byte-identical to a sequential fault-free run with exactly-once
// completion accounting and kill-bounded re-execution.
//
// The -smp flag additionally runs the SMP scheduler-equivalence check:
// for every guest count, rendezvous quantum (including quantum 1), and
// GOMAXPROCS setting in the matrix, the parallel goroutine-per-guest
// barrier schedule must produce byte-identical statistics, core
// snapshots (including shared-L2 replacement state), interval IPCs,
// Dynamic Sampling estimates, and rendered reports to the sequential
// round-robin reference schedule. -smp-procs narrows the GOMAXPROCS
// matrix (comma-separated) so CI can shard it.
//
// The -obs flag additionally runs the observability-invariance checks:
// every policy is replayed with a metrics registry and transition trace
// attached and must produce bit-identical results, and the full
// artifact bundle is rendered with and without instrumentation and must
// be byte-identical (the obs layer must be inert).
//
// The -stats flag additionally runs the statistical-validity check:
// the Stratified and RankedSet policies are swept across seeds against
// full-timing ground truth and must deliver the empirical interval
// coverage they claim, seed-deterministic journal-stable results, and
// an error-targeting mode that honours its budget and width contract.
// -stats-runs scales the sweep (seeded runs per policy per benchmark).
//
// Program checks run seeds seed..seed+n-1. Any divergence is reported
// with the first differing field and a disassembled window around the
// divergence PC, and the exit status is 1; re-running with the printed
// seed reproduces it exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

func main() {
	var (
		seed         = flag.Uint64("seed", 1, "first generator seed")
		n            = flag.Uint64("n", 100, "number of generated programs to check")
		chunk        = flag.Uint64("chunk", 0, "sync-point granularity in instructions (0 = default 509)")
		mode         = flag.String("mode", "all", "all|lockstep|snapshot|serialize|replay|chunks|policies")
		ckpt         = flag.Bool("ckpt", false, "also run the checkpoint cache-equivalence check per benchmark")
		batch        = flag.Bool("batch", false, "also run event-batch invariance checks (programs and policies)")
		fault        = flag.Bool("faults", false, "also run the fault-equivalence check (seeded fault injection vs fault-free artifacts)")
		sweep        = flag.Bool("sweep", false, "also run the sweep-equivalence check (distributed coordinator/worker sweep vs sequential artifacts)")
		sweepWorkers = flag.String("sweep-workers", "", "comma-separated worker counts for -sweep (default 2,4)")
		chaosf       = flag.Bool("chaos", false, "also run the chaos-schedule exploration (seeded coordinator/worker kill schedules vs sequential artifacts)")
		chaosN       = flag.Int("chaos-schedules", 0, "fault schedules for -chaos (0 = default 8)")
		smpf         = flag.Bool("smp", false, "also run the SMP scheduler-equivalence check (parallel barrier schedule vs sequential round-robin, byte-identical)")
		smpProcs     = flag.String("smp-procs", "", "comma-separated GOMAXPROCS values for -smp (default 1,2,8)")
		obsf         = flag.Bool("obs", false, "also run the observability-invariance checks (metrics/trace attached vs plain, results and artifacts identical)")
		statsf       = flag.Bool("stats", false, "also run the statistical-validity check (interval coverage, determinism, error targeting of the Stratified/RankedSet policies)")
		statsRuns    = flag.Int("stats-runs", 0, "seeded runs per policy per benchmark for -stats (0 = default 100)")
		scale        = flag.Int("scale", 50_000, "benchmark scale divisor for policy determinism")
		bench        = flag.String("bench", "gzip,mcf", "comma-separated benchmarks for policy determinism (\"all\" = every benchmark)")
		verb         = flag.Bool("v", false, "report every seed, not just failures")
	)
	flag.Parse()

	o := check.DefaultOptions()
	if *chunk != 0 {
		o.Chunk = *chunk
	}

	runPrograms := *mode != "policies"
	runPolicies := *mode == "all" || *mode == "policies" || *ckpt || *batch || *obsf
	var totalInstr uint64

	if runPrograms {
		for s := *seed; s < *seed+*n; s++ {
			rep, div, err := checkSeed(s, o, *mode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
				os.Exit(1)
			}
			if div != nil {
				fmt.Fprintf(os.Stderr, "%v\n", div)
				fmt.Fprintf(os.Stderr, "diffcheck: reproduce with: diffcheck -mode %s -seed %d -n 1 -chunk %d\n",
					*mode, s, o.Chunk)
				os.Exit(1)
			}
			if *batch {
				div, err := check.BatchInvariance(check.Generate(s), o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
					os.Exit(1)
				}
				if div != nil {
					fmt.Fprintf(os.Stderr, "%v\n", div)
					fmt.Fprintf(os.Stderr, "diffcheck: reproduce with: diffcheck -batch -seed %d -n 1 -chunk %d\n",
						s, o.Chunk)
					os.Exit(1)
				}
				rep.Checks = append(rep.Checks, "batch-invariance")
			}
			totalInstr += rep.Instr
			if *verb {
				fmt.Printf("seed %d: ok (%d instructions; %s)\n",
					s, rep.Instr, strings.Join(rep.Checks, ", "))
			}
		}
		fmt.Printf("diffcheck: %d programs ok (seeds %d..%d, mode %s, chunk %d, %d instructions)\n",
			*n, *seed, *seed+*n-1, *mode, o.Chunk, totalInstr)
	}

	if runPolicies {
		benches := strings.Split(*bench, ",")
		if *bench == "all" {
			benches = workload.Names()
		}
		opts := core.Options{Scale: *scale}
		for _, b := range benches {
			b = strings.TrimSpace(b)
			variants := check.ReplayVariants()
			if *ckpt {
				variants = append(variants, check.CkptVariants()...)
			}
			if *batch {
				variants = append(variants, check.BatchVariants()...)
			}
			if *obsf {
				variants = append(variants, check.ObsVariants()...)
			}
			if err := check.PolicyEquivalence(b, opts, nil, variants); err != nil {
				fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
				os.Exit(1)
			}
			if *verb {
				names := make([]string, len(variants))
				for i, v := range variants {
					names[i] = v.Name
				}
				fmt.Printf("policies on %s: identical across %s at scale %d\n", b, strings.Join(names, ", "), *scale)
			}
		}
		fmt.Printf("diffcheck: policy determinism ok (%s at scale %d)\n",
			strings.Join(benches, ", "), *scale)
		if *ckpt {
			fmt.Printf("diffcheck: checkpoint equivalence ok (%s at scale %d)\n",
				strings.Join(benches, ", "), *scale)
		}
		if *batch {
			fmt.Printf("diffcheck: batch invariance ok (%s at scale %d, batch sizes %v)\n",
				strings.Join(benches, ", "), *scale, check.BatchSizes)
		}
		if *obsf {
			if err := check.ObsArtifactInvariance(*scale*2, benches); err != nil {
				fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("diffcheck: obs invariance ok (%s at scale %d; artifacts byte-identical with metrics attached)\n",
				strings.Join(benches, ", "), *scale)
		}
	}

	if *fault {
		fo := check.FaultOptions{
			RequireKinds: []faults.Kind{
				faults.DiskRead, faults.DiskWrite, faults.DiskSync,
				faults.CorruptRead, faults.TornWrite,
				faults.RunPanic, faults.RunHang, faults.RunError,
			},
		}
		if *verb {
			fo.Progress = os.Stderr
		}
		if err := check.FaultEquivalence(fo); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("diffcheck: fault equivalence ok (artifacts byte-identical under injected faults)")
	}

	if *sweep {
		so := check.SweepOptions{
			RequireKinds: []faults.Kind{
				faults.WorkerKill, faults.NetGet, faults.NetPut, faults.NetCorrupt,
			},
		}
		if *sweepWorkers != "" {
			for _, s := range strings.Split(*sweepWorkers, ",") {
				var w int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &w); err != nil || w < 1 {
					fmt.Fprintf(os.Stderr, "diffcheck: bad -sweep-workers entry %q\n", s)
					os.Exit(2)
				}
				so.Workers = append(so.Workers, w)
			}
		}
		if *verb {
			so.Progress = os.Stderr
		}
		if err := check.SweepEquivalence(so); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("diffcheck: sweep equivalence ok (distributed sweep byte-identical to sequential run, exactly-once accounting)")
	}

	if *chaosf {
		if *chaosN <= 0 {
			*chaosN = 8
		}
		co := chaos.Options{Seed: *seed, Schedules: *chaosN}
		if *verb {
			co.Progress = os.Stderr
			co.Verbose = true
		} else {
			co.Progress = os.Stdout
		}
		if err := chaos.ExploreWith(co); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			fmt.Fprintf(os.Stderr, "diffcheck: reproduce with: diffcheck -chaos -seed %d -chaos-schedules %d\n",
				*seed, co.Schedules)
			os.Exit(1)
		}
		fmt.Printf("diffcheck: chaos exploration ok (%d schedules from seed %d; coordinator kill/restart, WAL tears, worker kills — artifacts byte-identical, exactly-once)\n",
			co.Schedules, *seed)
	}

	if *smpf {
		var so check.SMPOptions
		if *smpProcs != "" {
			for _, s := range strings.Split(*smpProcs, ",") {
				var p int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &p); err != nil || p < 1 {
					fmt.Fprintf(os.Stderr, "diffcheck: bad -smp-procs entry %q\n", s)
					os.Exit(2)
				}
				so.Procs = append(so.Procs, p)
			}
		}
		if *verb {
			so.Progress = os.Stderr
		}
		if err := check.SMPEquivalence(so); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("diffcheck: smp equivalence ok (parallel barrier schedule byte-identical to sequential round-robin across quanta and GOMAXPROCS)")
	}

	if *statsf {
		so := check.StatValidityOptions{Runs: *statsRuns}
		if *verb {
			so.Progress = os.Stderr
		}
		if err := check.StatisticalValidity(so); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("diffcheck: statistical validity ok (interval coverage, seed determinism, journal round-trip, error targeting)")
	}
}

// checkSeed runs the selected check(s) for one generated program.
func checkSeed(seed uint64, o check.Options, mode string) (*check.ProgramReport, *check.Divergence, error) {
	if mode == "all" {
		return check.CheckProgram(seed, o)
	}
	prog := check.Generate(seed)
	rep := &check.ProgramReport{Seed: seed, Checks: []string{mode}}
	var div *check.Divergence
	var err error
	switch mode {
	case "lockstep":
		div, rep.Instr, err = check.Lockstep(prog, o)
	case "snapshot":
		div, err = check.SnapshotRoundTrip(prog, o)
	case "serialize":
		div, err = check.SerializedRoundTrip(prog, o)
	case "replay":
		div, err = check.ReplayDeterminism(prog, o)
	case "chunks":
		div, err = check.ChunkAgreement(prog, o, 0)
	default:
		return nil, nil, fmt.Errorf("unknown -mode %q (want all|lockstep|snapshot|serialize|replay|chunks|policies)", mode)
	}
	return rep, div, err
}
