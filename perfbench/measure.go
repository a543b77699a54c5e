package main

import (
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/hostcost"
	"repro/internal/sampling"
)

// runResult is everything one invocation measured.
type runResult struct {
	p        *plan
	rounds   []roundOut
	layers   []layerOut
	tracer   *tracer
	setups   [][]float64 // each chunk's set-up repetitions, seconds at the reference speed
	elapsed  time.Duration
	peakRSS  float64 // process high-water mark, MB
	failures []string
	failed   int
	attempts int
}

// minRounds is the fewest rounds a run makes, whatever its budget, and
// never less than a pass; a traced run needs two of each kind to
// compare them.
const (
	minRounds       = 3
	minTracedRounds = 4
	layerPasses     = 3
	// setupReps is how many times a run times the set-up of every
	// chunk before its first round.
	setupReps = 40
)

// measure checks the guest images, then runs rounds until the budget
// would be overrun. A traced run runs each chunk twice in a row, once
// untraced and once traced, in the order U T, T U, U T … over the pairs,
// so a host that drifts steadily over the run biases both kinds alike
// and every chunk is measured both ways; it then times each layer in
// isolation.
func (p *plan) measure(budget time.Duration, traced bool) *runResult {
	res := &runResult{p: p, setups: make([][]float64, len(p.chunks))}
	res.failures = p.checkImages()
	res.failed = len(res.failures)
	if traced {
		res.tracer = newTracer()
	}
	least := max(minRounds, len(p.chunks)) // at least one whole pass
	if traced {
		least = max(minTracedRounds, 2*len(p.chunks)) // both kinds of every chunk
	}
	start := time.Now()
	// The set-ups are timed in the fresh process, before any round: a
	// round leaves a heap of hundreds of megabytes whose pages the
	// runtime hands back to the OS in the background, and set-ups timed
	// between rounds faulted a varying share of them back in, which
	// swung the sweeps' setup_s by a third from run to run.
	for j := 0; j < setupReps; j++ {
		for c, s := range p.setupSeconds() {
			res.setups[c] = append(res.setups[c], s)
		}
	}
	rss := startRSSSampler()
	defer rss.close()
	var lengths []float64
	for i := 0; ; i++ {
		typical := time.Duration(median(lengths) * float64(time.Second))
		if i >= least && time.Since(start)+typical > budget {
			break
		}
		r0 := time.Now()
		// Hand the previous round's garbage back to the OS, so every
		// round starts from the same small heap and its resident-set
		// peak is its own rather than whatever the heap retained before
		// it.
		debug.FreeOSMemory()
		chunk := i % len(p.chunks)
		var tr *tracer
		if traced {
			chunk = i / 2 % len(p.chunks)
			if i%2 != i/2%2 {
				tr = res.tracer
			}
		}
		rss.reset()
		o := p.round(i, chunk, tr)
		o.peakRSS = rss.reset()
		lengths = append(lengths, time.Since(r0).Seconds())
		res.rounds = append(res.rounds, o)
	}
	if traced {
		for i := 0; i < layerPasses; i++ {
			res.layers = append(res.layers, p.measureLayers(res.tracer))
		}
	}
	res.elapsed = time.Since(start)
	res.peakRSS = peakRSSMB()
	for _, o := range res.rounds {
		res.attempts += len(o.cells)
		failed, msgs := p.verify(o)
		res.failed += failed
		res.failures = append(res.failures, msgs...)
	}
	if res.failed > res.attempts {
		res.failed = res.attempts
	}
	return res
}

// verify counts a round's failed cells: an error, a missing record or
// a fingerprint that differs from the reference. Problems outside the
// cells (a worker error, a broken exactly-once count) count as failures
// too.
func (p *plan) verify(o roundOut) (int, []string) {
	failed := len(o.problems)
	msgs := append([]string(nil), o.problems...)
	for _, c := range o.cells {
		id := cellID(c.bench, c.cp.key)
		if c.err != nil {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: %v", id, c.err))
			continue
		}
		for _, r := range c.records {
			want, ok := p.refs.Cells[cellID(c.bench, r.Policy)]
			if got := fingerprintOf(r); !ok || got != want {
				failed++
				msgs = append(msgs, fmt.Sprintf("%s: %s fingerprint %+v, reference %+v", id, r.Policy, got, want))
				break
			}
		}
	}
	return failed, msgs
}

// primary returns the record that stands for a cell.
func (c cellRun) primary() (sampling.Result, bool) {
	want := c.cp.primary()
	for _, r := range c.records {
		if r.Policy == want {
			return r, true
		}
	}
	return sampling.Result{}, false
}

// instructions is the guest instructions a round's cells covered.
func (o roundOut) instructions() uint64 {
	var n uint64
	for _, c := range o.cells {
		if r, ok := c.primary(); ok && c.err == nil {
			n += r.Instructions
		}
	}
	return n
}

// passRate is the throughput of one pass over the seed's benchmarks,
// in guest Minstr per second of the rounds' cost (roundOut.cost), each
// chunk of the pass timed by the median over its rounds in rs.
func passRate(rs []roundOut) float64 {
	return ratio(passInstr(rs), passSum(rs, func(o roundOut) float64 { return o.cost.Seconds() })) / 1e6
}

// wallRate is passRate over the rounds' wall-clock time.
func wallRate(rs []roundOut) float64 {
	return ratio(passInstr(rs), passSum(rs, func(o roundOut) float64 { return o.wall.Seconds() })) / 1e6
}

// passInstr is the guest instructions one pass covers.
func passInstr(rs []roundOut) float64 {
	instr := map[int]uint64{}
	for _, o := range rs {
		instr[o.chunk] = o.instructions()
	}
	var n uint64
	for _, v := range instr {
		n += v
	}
	return float64(n)
}

// minstrValues is each round's own throughput, for the spread report.
func minstrValues(rs []roundOut) []float64 {
	return roundValues(rs, func(o roundOut) float64 { return ratio(float64(o.instructions()), o.cost.Seconds()) / 1e6 })
}

// hostSpeed is the host's speed over the run relative to the reference
// host: the mean of the rounds' probes.
func (res *runResult) hostSpeed() float64 {
	sum, n := 0.0, 0
	for _, o := range res.rounds {
		for _, v := range o.probes {
			sum += v
			n++
		}
	}
	return ratio(sum, float64(n))
}

func (res *runResult) pick(traced bool) []roundOut {
	var out []roundOut
	for _, o := range res.rounds {
		if o.traced == traced {
			out = append(out, o)
		}
	}
	return out
}

func roundValues(rs []roundOut, f func(roundOut) float64) []float64 {
	out := make([]float64, len(rs))
	for i, o := range rs {
		out[i] = f(o)
	}
	return out
}

// simTotals are the simulated (deterministic) sums over one round's
// cells: modelled time, detail share, samples and IPC error.
type simTotals struct {
	paperSeconds float64
	detailInstr  uint64
	allInstr     uint64
	samples      int
	errSum       float64
	errCells     int
}

// firstPass returns the cells of the first round of every chunk: one
// pass over the seed's benchmarks. Every pass computes the same results
// (each is checked against the references), so simulated totals come
// from this one.
func (res *runResult) firstPass() []cellRun {
	var out []cellRun
	for c := range res.p.chunks {
		for _, o := range res.rounds {
			if o.chunk == c {
				out = append(out, o.cells...)
				break
			}
		}
	}
	return out
}

func (res *runResult) sim() simTotals {
	var t simTotals
	for _, c := range res.firstPass() {
		r, ok := c.primary()
		if !ok || c.err != nil {
			continue
		}
		t.paperSeconds += r.Cost.PaperSeconds
		t.detailInstr += r.Cost.Instrs[hostcost.DetailWarm] + r.Cost.Instrs[hostcost.Timing]
		t.allInstr += r.Cost.TotalInstrs()
		t.samples += r.Samples
		if r.Policy == (sampling.FullTiming{}).Name() {
			continue
		}
		if full, ok := res.p.refs.Cells[cellID(c.bench, (sampling.FullTiming{}).Name())]; ok && full.ipc() > 0 {
			t.errSum += math.Abs(r.EstIPC/full.ipc() - 1)
			t.errCells++
		}
	}
	return t
}

// ipcErrPct is the mean |IPC_policy/IPC_full - 1| over the sampled
// cells, in percent; ok is false when the workload samples nothing.
func (t simTotals) ipcErrPct() (float64, bool) {
	if t.errCells == 0 {
		return 0, false
	}
	return 100 * t.errSum / float64(t.errCells), true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the untraced rounds.
func (res *runResult) endToEnd() map[string]metric {
	plain := res.pick(false)
	return map[string]metric{
		"minstr_s":    {passRate(plain), "Minstr/s"},
		"modelled_s":  {res.sim().paperSeconds, "s"},
		"peak_rss_mb": {res.roundPeakRSS(), "MB"},
		"setup_s":     {res.setupSeconds(), "s"},
	}
}

// setupSeconds is the set-up time of one pass: the sum over its chunks
// of the first quartile of each chunk's set-ups. A chunk's set-up takes
// a few milliseconds, so a stall of the host's CPU or disk spoils fewer
// of its samples than of whole-pass ones. The first quartile rather
// than the median, because a sweep's set-ups have a long tail (in CPU
// time as in wall-clock time) that swung the median by a third from run
// to run and the first quartile by half that.
func (res *runResult) setupSeconds() float64 {
	total := 0.0
	for _, s := range res.setups {
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		total += quantile(sorted, 0.25)
	}
	return total
}

// passSetups is each repetition's whole-pass set-up time, for the
// spread report.
func (res *runResult) passSetups() []float64 {
	out := make([]float64, len(res.setups[0]))
	for _, s := range res.setups {
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}

// roundPeakRSS is the resident-set high-water mark of a pass in MB: the
// highest, over the pass's chunks, of each chunk's median round peak
// over its untraced rounds. Every round starts from a heap handed back
// to the OS, so its peak is its own; medians over repeats are steadier
// than the process-wide peak, which one unlucky garbage-collection
// timing sets.
func (res *runResult) roundPeakRSS() float64 {
	v := 0.0
	for _, m := range chunkMedians(res.pick(false), func(o roundOut) float64 { return float64(o.peakRSS) / mib }) {
		v = max(v, m)
	}
	if v == 0 {
		return res.peakRSS
	}
	return v
}

// result is the last line of standard output.
func (res *runResult) result(traced bool) map[string]interface{} {
	metrics := res.endToEnd()
	if traced {
		metrics = res.perLayer()
	}
	return map[string]interface{}{
		"correct":   res.failed == 0 && res.attempts > 0,
		"attempted": res.attempts,
		"failed":    res.failed,
		"metrics":   metrics,
	}
}

// report prints the human-readable report: the host, the inputs, the
// end-to-end metrics with their spread, and measured host time next to
// modelled time for every policy.
func (res *runResult) report(w io.Writer, o options) {
	p := res.p
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v scale=%d\n", p.w.name, o.seed, o.seconds, o.trace, p.scale)
	fmt.Fprintf(w, "host: %s\n", hostInfo())
	fmt.Fprintf(w, "why: %s\n", p.w.why)
	fmt.Fprintln(w, "note: simulated caches, TLBs and predictors start cold in every cell; full timing is the only")
	fmt.Fprintln(w, "      accuracy reference the repository holds, and the model is not validated against hardware.")
	var bs []string
	for _, b := range p.benches {
		bs = append(bs, b+"("+className(b)+")")
	}
	fmt.Fprintf(w, "benchmarks (%d): %s\n", len(p.benches), strings.Join(bs, " "))
	var keys []string
	for _, cp := range p.cells {
		keys = append(keys, cp.key)
	}
	fmt.Fprintf(w, "cells per pass: %d (%d benchmarks x %s), %d rounds per pass; load: closed loop, at most %d cells at once\n",
		len(p.benches)*len(p.cells), len(p.benches), strings.Join(keys, ", "), len(p.chunks), p.concurrency())
	plain := res.pick(false)
	fmt.Fprintf(w, "rounds: %d untraced, %d traced, %.1f s\n", len(plain), len(res.rounds)-len(plain), res.elapsed.Seconds())

	e2e := res.endToEnd()
	sim := res.sim()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end\tvalue\tunit\tnote")
	mips := minstrValues(plain)
	note := fmt.Sprintf("host; median of %d rounds, spread %s", len(mips), quartiles(mips))
	if len(p.chunks) > 1 {
		note = fmt.Sprintf("host; one pass, each of its %d rounds timed by its median over %d rounds", len(p.chunks), len(plain))
	}
	cost := fmt.Sprintf("cell seconds over %d cells at once at the reference host speed; the probes saw this host at %.3g x that speed",
		p.concurrency(), res.hostSpeed())
	fmt.Fprintf(tw, "minstr_s\t%.4g\t%s\t%s; %s\n", e2e["minstr_s"].Value, e2e["minstr_s"].Unit, note, cost)
	fmt.Fprintf(tw, "minstr_s (wall)\t%.4g\t%s\thost; the same over wall-clock seconds, unscaled (a runner round's include its probes)\n",
		wallRate(plain), e2e["minstr_s"].Unit)
	fmt.Fprintf(tw, "modelled_s\t%.6g\t%s\tsim; hostcost paper-equivalent time, summed over one pass's cells\n", e2e["modelled_s"].Value, "s")
	if e, ok := sim.ipcErrPct(); ok {
		fmt.Fprintf(tw, "ipc_err_pct\t%.4g\t%%\tsim; mean over %d sampled cells vs recorded full timing\n", e, sim.errCells)
	} else {
		fmt.Fprintf(tw, "ipc_err_pct\tn/a\t%%\tsim; no sampled cells in this workload\n")
	}
	fmt.Fprintf(tw, "peak_rss_mb\t%.4g\tMB\thost; per-round high-water mark, median over repeats, highest over the pass (process-wide: %.4g MB)\n",
		e2e["peak_rss_mb"].Value, res.peakRSS)
	fmt.Fprintf(tw, "setup_s\t%.4g\ts\thost; one pass at the reference speed, each of its %d set-ups the first quartile of %d, spread of the pass total %s\n",
		e2e["setup_s"].Value, len(res.setups), len(res.setups[0]), quartiles(res.passSetups()))
	frac := 0.0
	if res.attempts > 0 {
		frac = float64(res.failed) / float64(res.attempts)
	}
	fmt.Fprintf(tw, "cells_failed_frac\t%.4g\tfraction\t%d failed of %d attempted\n", frac, res.failed, res.attempts)
	tw.Flush()
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	res.reportModelled(w)
	if o.trace {
		res.reportLayers(w)
	}
}

// concurrency is the most cells the workload runs at once.
func (p *plan) concurrency() int {
	if p.w.kind == sessionKind {
		return 1
	}
	return p.nproc
}

// quartiles renders the first and third quartiles of xs relative to
// their median.
func quartiles(xs []float64) string {
	if len(xs) < 2 {
		return "n/a"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
	m := median(s)
	if m == 0 {
		return "n/a"
	}
	return fmt.Sprintf("q1..q3 %.4g..%.4g (%.1f%% of median)", q1, q3, 100*(q3-q1)/m)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// chunkMedians is, for every chunk rs covers, the median of f over
// that chunk's rounds.
func chunkMedians(rs []roundOut, f func(roundOut) float64) []float64 {
	byChunk := map[int][]float64{}
	for _, o := range rs {
		byChunk[o.chunk] = append(byChunk[o.chunk], f(o))
	}
	var out []float64
	for _, vs := range byChunk {
		out = append(out, median(vs))
	}
	return out
}

// passSum sums, over the chunks of one pass, the median over rs of f of
// that chunk's rounds.
func passSum(rs []roundOut, f func(roundOut) float64) float64 {
	total := 0.0
	for _, m := range chunkMedians(rs, f) {
		total += m
	}
	return total
}

// reportModelled prints, for every policy of the workload, the host
// seconds its cells took next to the seconds hostcost models for the
// same instructions (run scale), and the paper-scale extrapolation.
// Cell times come from untraced rounds, or from traced ones in a
// distributed sweep, whose cells only spans can see.
func (res *runResult) reportModelled(w io.Writer) {
	rs := res.pick(false)
	timed := func(rs []roundOut) bool {
		for _, o := range rs {
			for _, c := range o.cells {
				if c.dur > 0 {
					return true
				}
			}
		}
		return false
	}
	if !timed(rs) {
		rs = res.pick(true)
	}
	if len(rs) == 0 {
		return
	}
	fmt.Fprintln(w, "measured vs modelled, per policy, over one pass (host: cell-seconds, each round's the median of its repeats):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tcells\thost_s\tmodelled_s\tmodelled/host\tpaper_s")
	var hostTotal, modTotal, paperTotal float64
	for _, cp := range res.p.cells {
		h := passSum(rs, func(o roundOut) float64 {
			d := 0.0
			for _, c := range o.cells {
				if c.cp.key == cp.key {
					d += c.dur.Seconds()
				}
			}
			return d
		})
		var mod, paper float64
		cells := 0
		for _, c := range res.firstPass() {
			if c.cp.key != cp.key {
				continue
			}
			cells++
			if r, ok := c.primary(); ok {
				mod += r.Cost.Seconds
				paper += r.Cost.PaperSeconds
			}
		}
		hostTotal += h
		modTotal += mod
		paperTotal += paper
		hs, rt := "n/a", "n/a"
		if h > 0 {
			hs = fmt.Sprintf("%.4g", h)
			rt = fmt.Sprintf("%.3g", mod/h)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4g\t%s\t%.4g\n", cp.primary(), cells, hs, mod, rt, paper)
	}
	wall := passSum(rs, func(o roundOut) float64 { return o.wall.Seconds() })
	fmt.Fprintf(tw, "all\t%d\t%.4g\t%.4g\t%.3g\t%.4g\n", len(res.firstPass()), hostTotal, modTotal, ratio(modTotal, hostTotal), paperTotal)
	tw.Flush()
	fmt.Fprintf(w, "pass wall-clock: %.4g s over %d cells at most %d at once\n", wall, len(res.firstPass()), res.p.concurrency())
}
