// Command vmbench measures interpreter throughput in MIPS (million
// guest instructions per host second) for the three execution modes the
// paper prices — fast (no events), event-generating (batched sink), and
// detailed timing — plus an end-to-end evaluation sweep through
// experiments.Runner, and emits the BENCH_*.json schema (date, scales,
// baseline, current, speedup) directly, so bench files are never
// hand-assembled.
//
// The baseline defaults to numbers recorded before the batched event
// pipeline landed; pass -baseline-file to compare against the "current"
// section of a previous report (the committed BENCH_prN.json of the
// last PR, measured on the same host), or -baseline to record this
// run's numbers as their own baseline.
//
// With -max-regress P the tool becomes a CI regression guard: after
// measuring, it fails (exit 1) if any mode's throughput fell more than
// P percent below the baseline. Like the sweep smoke test, the guard
// only arms on hosts with at least 2 CPUs — a starved shared runner
// produces throughput noise far above any real regression signal — and
// reports itself skipped otherwise.
//
// Usage:
//
//	vmbench [-time 3s] [-runs 3] [-o BENCH.json] [-json]
//	        [-baseline-file BENCH_pr3.json] [-max-regress 15]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// recordedBaseline is the pre-batching throughput on the original
// reference host (single-core x86-64, Go 1.24): per-event sink
// dispatch, per-retirement Class() calls, no batch buffer. Used only
// when no -baseline-file is given.
var recordedBaseline = modes{
	Fast:   158.9,
	Event:  50.18,
	Detail: 36.03,
	RunAll: 61.33,
}

type modes struct {
	Fast   float64 `json:"fast_minstr_s"`
	Event  float64 `json:"event_minstr_s"`
	Detail float64 `json:"detail_minstr_s"`
	RunAll float64 `json:"runall_minstr_s"`
}

type report struct {
	Date        string `json:"date"`
	GoMaxProcs  int    `json:"go_maxprocs"`
	VMScale     int    `json:"vm_scale"`
	RunAllScale int    `json:"runall_scale"`
	// BaselineSource says where Baseline came from: "recorded" (the
	// constants above), "self" (-baseline), or the -baseline-file path.
	BaselineSource string  `json:"baseline_source"`
	Baseline       modes   `json:"baseline"`
	Current        modes   `json:"current"`
	Speedup        modes   `json:"speedup"`
	EventObsOff    float64 `json:"event_obs_off_minstr_s"`
	EventObsOn     float64 `json:"event_obs_on_minstr_s"`
	// ObsOverheadPct is the event-mode throughput cost of attaching the
	// metrics registry and transition trace; the obs layer's budget is
	// under 2%.
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	MeasureSecs    float64 `json:"seconds_per_measurement"`
	Runs           int     `json:"runs_best_of"`
}

// loadBaseline reads the "current" section of a previous report. Only
// that section is decoded, so files written under older schema
// revisions load fine.
func loadBaseline(path string) modes {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var prev struct {
		Current modes `json:"current"`
	}
	if err := json.Unmarshal(raw, &prev); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if prev.Current == (modes{}) {
		fatal(fmt.Errorf("%s: no \"current\" throughput section", path))
	}
	return prev.Current
}

// measureVM runs gzip in 100k-instruction slices for at least d and
// returns Minstr/s. makeSink supplies a fresh sink per guest run (nil
// for fast mode). The machine is built and loaded once and rewound to
// its boot snapshot whenever the guest completes, so the timed loop
// measures the interpreter rather than allocator and loader churn.
func measureVM(d time.Duration, makeSink func() vm.BatchSink) float64 {
	spec, err := workload.ByName("gzip")
	if err != nil {
		fatal(err)
	}
	img, _ := workload.BuildScaled(spec, 20_000)
	m := vm.New(vm.Config{})
	m.Load(img)
	boot := m.Snapshot()
	var sink vm.BatchSink
	if makeSink != nil {
		sink = makeSink()
	}
	var executed uint64
	start := time.Now()
	for time.Since(start) < d {
		n := m.Run(100_000, sink)
		if n == 0 {
			if err := m.Restore(boot); err != nil {
				fatal(err)
			}
			if makeSink != nil {
				sink = makeSink()
			}
			n = m.Run(100_000, sink)
		}
		executed += n
	}
	return float64(executed) / time.Since(start).Seconds() / 1e6
}

// measureEventObs runs gzip in event mode through core.Session — the
// layer the obs instrumentation hooks — in 100k-instruction slices for
// at least d and returns Minstr/s. With withObs, a metrics registry and
// transition trace are attached, so the difference against the plain
// run is the whole observability overhead.
func measureEventObs(d time.Duration, withObs bool) float64 {
	spec, err := workload.ByName("gzip")
	if err != nil {
		fatal(err)
	}
	newS := func() *core.Session {
		opts := core.Options{Scale: 20_000}
		if withObs {
			opts.Obs = obs.NewRegistry()
			opts.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
		}
		return core.NewSession(spec, opts)
	}
	s := newS()
	sink := &vm.CountingSink{}
	var executed uint64
	start := time.Now()
	for time.Since(start) < d {
		n := s.RunEvents(100_000, sink)
		if n == 0 {
			s = newS()
			n = s.RunEvents(100_000, sink)
		}
		executed += n
	}
	return float64(executed) / time.Since(start).Seconds() / 1e6
}

// measureRunAll times full evaluation sweeps (full timing + Dynamic
// Sampling over gzip+mcf) through fresh Runners until d has elapsed
// and returns the blended Minstr/s.
func measureRunAll(d time.Duration, scale int) float64 {
	policies := []sampling.Policy{
		sampling.FullTiming{},
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
	}
	var executed uint64
	start := time.Now()
	for time.Since(start) < d {
		r := experiments.NewRunner(experiments.Options{
			Scale:      scale,
			Benchmarks: []string{"gzip", "mcf"},
		})
		results, err := r.RunAll(policies)
		if err != nil {
			fatal(err)
		}
		for _, byPolicy := range results {
			for _, res := range byPolicy {
				executed += res.Instructions
			}
		}
	}
	return float64(executed) / time.Since(start).Seconds() / 1e6
}

func bestOf(runs int, f func() float64) float64 {
	best := 0.0
	for i := 0; i < runs; i++ {
		if v := f(); v > best {
			best = v
		}
	}
	return best
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmbench:", err)
	os.Exit(1)
}

func main() {
	per := flag.Duration("time", 3*time.Second, "minimum duration per measurement")
	runs := flag.Int("runs", 3, "measurements per mode (best is reported)")
	out := flag.String("o", "BENCH.json", "output JSON path (\"-\" = stdout)")
	asJSON := flag.Bool("json", false, "also print the report JSON to stdout")
	asBaseline := flag.Bool("baseline", false, "record current numbers as the baseline too")
	baselineFile := flag.String("baseline-file", "", "previous BENCH_*.json whose \"current\" numbers become the baseline")
	maxRegress := flag.Float64("max-regress", 0, "fail if any mode regresses more than this percent vs the baseline (0 = off)")
	runallScale := flag.Int("runall-scale", 2000, "workload scale for the end-to-end sweep")
	flag.Parse()

	rep := report{
		Date:           time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		VMScale:        20_000,
		RunAllScale:    *runallScale,
		BaselineSource: "recorded",
		Baseline:       recordedBaseline,
		MeasureSecs:    per.Seconds(),
		Runs:           *runs,
	}
	if *baselineFile != "" {
		rep.BaselineSource = *baselineFile
		rep.Baseline = loadBaseline(*baselineFile)
	}

	fmt.Fprintln(os.Stderr, "vmbench: fast mode...")
	rep.Current.Fast = bestOf(*runs, func() float64 { return measureVM(*per, nil) })
	fmt.Fprintln(os.Stderr, "vmbench: event mode (CountingSink)...")
	rep.Current.Event = bestOf(*runs, func() float64 {
		return measureVM(*per, func() vm.BatchSink { return &vm.CountingSink{} })
	})
	fmt.Fprintln(os.Stderr, "vmbench: detailed timing...")
	rep.Current.Detail = bestOf(*runs, func() float64 {
		return measureVM(*per, func() vm.BatchSink { return timing.NewCore(timing.DefaultConfig()) })
	})
	fmt.Fprintln(os.Stderr, "vmbench: event mode, obs detached vs attached...")
	rep.EventObsOff = bestOf(*runs, func() float64 { return measureEventObs(*per, false) })
	rep.EventObsOn = bestOf(*runs, func() float64 { return measureEventObs(*per, true) })
	rep.ObsOverheadPct = (1 - rep.EventObsOn/rep.EventObsOff) * 100
	fmt.Fprintln(os.Stderr, "vmbench: end-to-end RunAll sweep...")
	rep.Current.RunAll = bestOf(*runs, func() float64 { return measureRunAll(*per, *runallScale) })

	if *asBaseline {
		rep.BaselineSource = "self"
		rep.Baseline = rep.Current
	}
	rep.Speedup = modes{
		Fast:   rep.Current.Fast / rep.Baseline.Fast,
		Event:  rep.Current.Event / rep.Baseline.Event,
		Detail: rep.Current.Detail / rep.Baseline.Detail,
		RunAll: rep.Current.RunAll / rep.Baseline.RunAll,
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		if *asJSON {
			os.Stdout.Write(enc)
		}
		fmt.Printf("vmbench: fast %.1f  event %.1f  detail %.1f  runall %.1f Minstr/s (event speedup %.2fx, obs overhead %.2f%%) -> %s\n",
			rep.Current.Fast, rep.Current.Event, rep.Current.Detail, rep.Current.RunAll,
			rep.Speedup.Event, rep.ObsOverheadPct, *out)
	}

	if *maxRegress > 0 {
		if rep.GoMaxProcs < 2 {
			fmt.Fprintf(os.Stderr, "vmbench: regression guard skipped: GOMAXPROCS=%d (needs >= 2 for stable throughput)\n", rep.GoMaxProcs)
			return
		}
		floor := 1 - *maxRegress/100
		failed := false
		for _, m := range []struct {
			name string
			s    float64
		}{
			{"fast", rep.Speedup.Fast},
			{"event", rep.Speedup.Event},
			{"detail", rep.Speedup.Detail},
			{"runall", rep.Speedup.RunAll},
		} {
			if m.s < floor {
				fmt.Fprintf(os.Stderr, "vmbench: REGRESSION: %s mode at %.2fx of baseline (floor %.2fx)\n", m.name, m.s, floor)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vmbench: regression guard ok (all modes >= %.2fx of %s)\n", floor, rep.BaselineSource)
	}
}
