package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// layerMetric is one per-layer metric with what it was measured from.
type layerMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func perInstr(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// layerMetrics computes every per-layer metric of a traced run: the
// isolated layer timings, the registry counters of the traced rounds
// (median over rounds), the spans (pooled over rounds), and the
// tracing overhead against the interleaved untraced rounds.
func (res *runResult) layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name string, v float64, unit, note string) {
		out = append(out, layerMetric{name, v, unit, note})
	}
	traced, plain := res.pick(true), res.pick(false)
	rounds := fmt.Sprintf("median of %d traced rounds", len(traced))
	perRound := func(f func(roundOut) float64) float64 { return median(roundValues(traced, f)) }
	counter := func(o roundOut, name string) float64 { return o.reg.Snapshot()[name] }
	mode := func(o roundOut, m string) float64 {
		return counter(o, `vm_wall_ns_total{mode="`+m+`"}`) / 1e9
	}
	iso := fmt.Sprintf("isolated; median of %d passes over %d benchmarks", len(res.layers), min(layerBenches, len(res.p.benches)))
	layer := func(f func(layerOut) float64) float64 {
		vs := make([]float64, len(res.layers))
		for i, l := range res.layers {
			vs[i] = f(l)
		}
		return median(vs)
	}

	// vm
	add("vm.fast_ns_per_instr", layer(func(l layerOut) float64 { return perInstr(l.fast, l.instr) }), "ns/instr", iso)
	add("vm.event_ns_per_instr", layer(func(l layerOut) float64 { return perInstr(l.event, l.instr) }), "ns/instr", iso+"; CountingSink")

	// timing
	add("timing.detail_ns_per_instr", layer(func(l layerOut) float64 { return perInstr(l.detailSelf, l.detailInstr) }), "ns/instr", iso+"; self time in Core.OnEvents")
	add("timing.warm_ns_per_instr", layer(func(l layerOut) float64 { return perInstr(l.warmSelf, l.instr) }), "ns/instr", iso+"; self time in WarmSink().OnEvents")
	add("timing.l1d_mpki", layer(func(l layerOut) float64 { return 1000 * ratio(float64(l.l1dMiss), float64(l.detailInstr)) }), "mpki", "sim; cold caches")
	add("timing.l2_mpki", layer(func(l layerOut) float64 { return 1000 * ratio(float64(l.l2Miss), float64(l.detailInstr)) }), "mpki", "sim; cold caches")
	add("timing.mispredict_pki", layer(func(l layerOut) float64 { return 1000 * ratio(float64(l.mispredicts), float64(l.detailInstr)) }), "pki", "sim; cold predictor")

	// simpoint
	add("simpoint.bbv_ns_per_instr", layer(func(l layerOut) float64 { return perInstr(l.bbvSelf, l.instr) }), "ns/instr", iso+"; self time in Profiler.OnEvents")
	add("simpoint.kmeans_s", layer(func(l layerOut) float64 { return l.kmeans.Seconds() }), "s", iso+"; ChooseK + final KMeans")
	add("simpoint.vectors", layer(func(l layerOut) float64 { return float64(l.vectors) }), "count", "sim")
	add("simpoint.k", layer(func(l layerOut) float64 { return float64(l.k) }), "count", "sim; summed over benchmarks")

	// core: host seconds per execution mode, from vm_wall_ns_total
	add("core.fast_s", perRound(func(o roundOut) float64 { return mode(o, "fast") }), "s", rounds)
	add("core.bbv_s", perRound(func(o roundOut) float64 { return mode(o, "bbv") }), "s", rounds)
	add("core.funcwarm_s", perRound(func(o roundOut) float64 { return mode(o, "funcwarm") }), "s", rounds)
	add("core.detail_s", perRound(func(o roundOut) float64 { return mode(o, "detailwarm") + mode(o, "timing") }), "s", rounds+"; detailwarm + timing")
	add("core.other_s", perRound(func(o roundOut) float64 {
		modes := 0.0
		for _, m := range []string{"fast", "event", "bbv", "funcwarm", "detailwarm", "timing"} {
			modes += mode(o, m)
		}
		return o.busy.Seconds() - modes
	}), "s", rounds+"; cell (sweep: worker) seconds minus the modes")
	add("core.mode_switches", perRound(func(o roundOut) float64 { return counter(o, "hostcost_mode_switches_total") }), "count", rounds)

	// sampling
	sim := res.sim()
	add("sampling.detail_frac", ratio(float64(sim.detailInstr), float64(sim.allInstr)), "frac", "sim; detailwarm + timing instructions over all")
	add("sampling.samples", float64(sim.samples), "count", "sim")
	e, _ := sim.ipcErrPct()
	add("sampling.ipc_err_pct", e, "%", fmt.Sprintf("sim; %d sampled cells vs recorded full timing (0: none)", sim.errCells))

	// ckpt
	add("ckpt.hit_ratio", perRound(func(o roundOut) float64 {
		hits := counter(o, "ckpt_store_hits_total") + counter(o, "ckpt_store_nearest_hits_total")
		return ratio(hits, hits+counter(o, "ckpt_store_misses_total")+counter(o, "ckpt_store_nearest_misses_total"))
	}), "ratio", rounds+"; exact + nearest hits over lookups")
	add("ckpt.restored_instr_frac", perRound(func(o roundOut) float64 {
		r := counter(o, "ckpt_restored_instructions_total")
		return ratio(r, r+counter(o, `vm_instructions_total{mode="fast"}`))
	}), "frac", rounds)
	add("ckpt.snapshot_us", layer(func(l layerOut) float64 { return ratio(float64(l.snapshot.Microseconds()), float64(l.snapshots)) }), "us", iso+"; Machine.Snapshot at deposit points")
	add("ckpt.restore_us", layer(func(l layerOut) float64 { return ratio(float64(l.restore.Microseconds()), float64(l.snapshots)) }), "us", iso+"; Machine.Restore")
	add("ckpt.encode_ms_per_mb", layer(func(l layerOut) float64 {
		return ratio(float64(l.encode.Nanoseconds())/1e6, float64(l.encodedBytes)/mib)
	}), "ms/MB", iso+"; Snapshot.WriteTo")
	add("ckpt.decode_ms_per_mb", layer(func(l layerOut) float64 {
		return ratio(float64(l.decode.Nanoseconds())/1e6, float64(l.encodedBytes)/mib)
	}), "ms/MB", iso+"; vm.ReadSnapshot")
	add("ckpt.disk_write_ms_p50", perRound(func(o roundOut) float64 {
		v, _ := histP50(o.serverReg, "ckpt_disk_write_seconds")
		return 1000 * v
	}), "ms", rounds+"; ckpt_disk_write_seconds histogram (0: no disk tier)")
	add("ckpt.store_mb", perRound(func(o roundOut) float64 { return float64(o.storeBytes) / mib }), "MB", rounds+"; in-memory bytes at round end")

	// experiments
	cells := res.tracer.durations("cell")
	add("experiments.cell_s_p50", percentile(cells, 0.5).Seconds(), "s", fmt.Sprintf("spans; n=%d", len(cells)))
	add("experiments.cells", float64(len(cells)), "count", "cell spans behind cell_s_p50")
	add("experiments.journal_appends", perRound(func(o roundOut) float64 { return counter(o, "experiments_journal_appends_total") }), "count", rounds)
	add("experiments.journal_write_ms", perRound(func(o roundOut) float64 { return 1000 * o.journalWrite.Seconds() }), "ms",
		rounds+"; WriteJournalFile / Coordinator.WriteJournal (0: no journal)")

	// sweep
	for _, r := range []struct{ name, route string }{{"claim", "sweep.claim"}, {"complete", "sweep.complete"}} {
		ds := res.tracer.durations(r.route)
		add("sweep."+r.name+"_ms_p50", 1000*percentile(ds, 0.5).Seconds(), "ms", fmt.Sprintf("spans; n=%d", len(ds)))
		tail, pct, ok := tailOf(ds)
		note := fmt.Sprintf("n=%d: too few samples (0)", len(ds))
		if ok {
			note = fmt.Sprintf("p%.1f of n=%d", pct, len(ds))
		}
		add("sweep."+r.name+"_ms_tail", 1000*tail.Seconds(), "ms", note)
		add("sweep."+r.name+"s", float64(len(ds)), "count", "spans behind the "+r.name+" percentiles")
	}
	appends := res.tracer.durations("sweep.append")
	add("sweep.append_ms_p50", 1000*percentile(appends, 0.5).Seconds(), "ms", fmt.Sprintf("spans; n=%d", len(appends)))
	puts := res.tracer.durations("sweep.ckpt_put")
	add("sweep.ckpt_put_ms_p50", 1000*percentile(puts, 0.5).Seconds(), "ms", fmt.Sprintf("spans; n=%d", len(puts)))
	gets := append(res.tracer.durations("sweep.ckpt_get"), res.tracer.durations("sweep.ckpt_nearest")...)
	add("sweep.ckpt_get_ms_p50", 1000*percentile(gets, 0.5).Seconds(), "ms", fmt.Sprintf("spans; n=%d (exact + nearest)", len(gets)))
	add("sweep.ckpt_put_mb", perRound(func(o roundOut) float64 {
		var b int64
		for _, t := range o.transports {
			b += t.putBytes
		}
		return float64(b) / mib
	}), "MB", rounds)
	add("sweep.poll_wait_s", perRound(func(o roundOut) float64 {
		var d time.Duration
		for _, t := range o.transports {
			d += t.pollWait
		}
		return d.Seconds()
	}), "s", rounds+"; after empty claims, summed over workers")
	add("sweep.reissues", perRound(func(o roundOut) float64 { return float64(o.coord.Reissues) }), "count", rounds)
	add("sweep.retries", perRound(func(o roundOut) float64 {
		n := 0
		for _, t := range o.transports {
			n += t.retries
		}
		return float64(n)
	}), "count", rounds+"; transport errors and 5xx answers")

	// workload, Go runtime, tracing
	add("workload.build_ms", median(roundValues(plain, func(o roundOut) float64 { return 1000 * o.build.Seconds() })), "ms",
		fmt.Sprintf("median of %d untraced set-ups", len(plain)))
	add("go.alloc_mb", median(roundValues(plain, func(o roundOut) float64 { return float64(o.allocBytes) / mib })), "MB",
		"per untraced round")
	add("go.gc_cycles", median(roundValues(plain, func(o roundOut) float64 { return float64(o.gcCycles) })), "count",
		"per untraced round")
	// The schedule runs every chunk both ways, so the two passes cover
	// the same work.
	u, t := passRate(plain), passRate(traced)
	add("trace.overhead_pct", 100*ratio(u-t, u), "%", fmt.Sprintf("minstr_s untraced %.4g vs traced %.4g, paired rounds", u, t))
	return out
}

// perLayer is the per-layer metrics as the result line reports them.
func (res *runResult) perLayer() map[string]metric {
	out := map[string]metric{}
	for _, m := range res.layerMetrics() {
		out[m.name] = metric{m.value, m.unit}
	}
	return out
}

func (res *runResult) reportLayers(w io.Writer) {
	fmt.Fprintln(w, "per-layer (traced run; 0 marks a layer this workload does not use):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range res.layerMetrics() {
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\n", m.name, m.value, m.unit, m.note)
	}
	tw.Flush()
}
