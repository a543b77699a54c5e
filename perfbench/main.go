// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator through the program's public entry points
// for a host-time budget, checks every cell's simulated results against
// the references recorded under refs/, and prints the end-to-end
// metrics (with --trace 1, the per-layer metrics from a traced run) as
// one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload dynamic --seed 1 --seconds 28 --trace 0
//
// README.md in this directory lists the workloads and maps every metric
// to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	scale   int
	work    string // scratch directory
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dynamic, full-timing, paper-sweep or dist-sweep")
	seed := fs.Uint64("seed", 1, "workload seed: picks the benchmarks and the Stratified/RankedSet seeds")
	secs := fs.Int("seconds", 28, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	record := fs.String("record", "", "write the workload's references (at its own scale and the self-test's) into this directory instead of measuring")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *secs < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, scale: w.scale, work: *work}
	if *record != "" {
		for _, scale := range recordScales(w) {
			path, err := recordRefs(w, scale, *record)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: recording %s: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		return 0
	}
	p, err := newPlan(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res := p.measure(time.Duration(o.seconds)*time.Second, o.trace)
	res.report(stdout, o)
	if o.trace {
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := res.tracer.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	line, err := json.Marshal(res.result(o.trace))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// newPlan resolves a seed into the benchmarks and cells to run and
// refuses a plan any of whose cells lacks a reference.
func newPlan(w workloadDef, o options) (*plan, error) {
	refs, err := loadRefs(w.name, o.scale)
	if err != nil {
		return nil, err
	}
	p := &plan{
		w:       w,
		scale:   o.scale,
		benches: selectBenchmarks(o.seed),
		matrix:  w.policies(o.scale, o.seed),
		refs:    refs,
		work:    o.work,
		nproc:   runtime.NumCPU(),
	}
	p.cells = groupByKey(p.matrix)
	p.chunks = chunks(p.benches, w.rounds)
	if missing := missingRefs(refs, p.benches, p.matrix); len(missing) > 0 {
		return nil, fmt.Errorf("seed %d: refusing to run unchecked: no reference for %d cells (%s); record them with --record",
			o.seed, len(missing), strings.Join(missing[:min(len(missing), 3)], ", "))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	return p, nil
}

// hostInfo describes the machine and build a report was measured on.
func hostInfo() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func className(bench string) string {
	spec, err := workload.ByName(bench)
	if err != nil {
		return "?"
	}
	return classNames[memClass(spec)]
}
