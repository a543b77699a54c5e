package main

import (
	"bytes"
	"time"

	"repro/internal/simpoint"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// layerBenches is how many of the run's benchmarks (one per memory-
// boundedness class, given the interleaved order) the isolated layer
// measurements use, and layerInstr caps the instructions each runs.
const (
	layerBenches = 3
	layerInstr   = 3_000_000
)

// layerOut is one pass of the isolated layer measurements: each public
// layer call timed on the workload's own guest images.
type layerOut struct {
	instr        uint64 // instructions per mode, summed over benchmarks
	fast, event  time.Duration
	detailSelf   time.Duration // inside Core.OnEvents
	warmSelf     time.Duration // inside Core.WarmSink().OnEvents
	bbvSelf      time.Duration // inside Profiler.OnEvents
	kmeans       time.Duration // ChooseK plus the final KMeans
	vectors, k   int
	l1dMiss      uint64
	l2Miss       uint64
	mispredicts  uint64
	detailInstr  uint64
	snapshots    int
	snapshot     time.Duration
	restore      time.Duration
	encode       time.Duration
	decode       time.Duration
	encodedBytes int64
}

// measureLayers times each layer's public calls in isolation, outside
// any session, on the first few of the run's benchmarks.
func (p *plan) measureLayers(tr *tracer) layerOut {
	var out layerOut
	root := tr.begin("layers", nil, "")
	defer root.end()
	n := layerBenches
	if n > len(p.benches) {
		n = len(p.benches)
	}
	for _, b := range p.benches[:n] {
		spec, err := workload.ByName(b)
		if err != nil {
			continue
		}
		total := spec.ScaledInstr(p.scale)
		interval := workload.DefaultIntervalLen(total)
		img, _ := workload.Build(spec, total, interval)
		budget := total
		if budget > layerInstr {
			budget = layerInstr
		}
		fresh := func() *vm.Machine {
			m := vm.New(vm.Config{})
			m.Load(img)
			return m
		}

		// vm: fast dispatch, then event generation into a counting sink.
		m := fresh()
		sp := tr.begin("vm.Machine.Run(fast)", root, b)
		out.instr += m.Run(budget, nil)
		out.fast += sp.end()
		m = fresh()
		sp = tr.begin("vm.Machine.Run(event)", root, b)
		m.Run(budget, &vm.CountingSink{})
		out.event += sp.end()

		// timing: the detailed core and its warming sink, each timed
		// from inside the Run that feeds it.
		m = fresh()
		c := timing.NewCore(timing.DefaultConfig())
		ts := &timedSink{inner: c}
		sp = tr.begin("vm.Machine.Run(detail)", root, b)
		out.detailInstr += m.Run(budget, ts)
		tr.addChild("timing.Core.OnEvents", sp, b, ts.n, ts.d)
		sp.end()
		out.detailSelf += ts.d
		_, l1d, l2 := c.CacheStats()
		out.l1dMiss += l1d.Misses
		out.l2Miss += l2.Misses
		out.mispredicts += c.Mispredicts()

		m = fresh()
		c = timing.NewCore(timing.DefaultConfig())
		ts = &timedSink{inner: c.WarmSink().(vm.BatchSink)}
		sp = tr.begin("vm.Machine.Run(funcwarm)", root, b)
		m.Run(budget, ts)
		tr.addChild("timing.warmSink.OnEvents", sp, b, ts.n, ts.d)
		sp.end()
		out.warmSelf += ts.d

		// simpoint: BBV profiling interval by interval, then model
		// selection and the final clustering with Analyse's arguments.
		pol := simpoint.New(false)
		prof := simpoint.NewProfiler(pol.Dim, pol.Seed)
		ts = &timedSink{inner: prof}
		m = fresh()
		sp = tr.begin("vm.Machine.Run(bbv)", root, b)
		for done := uint64(0); done < budget; {
			ex := m.Run(min(interval, budget-done), ts)
			if ex == 0 {
				break
			}
			done += ex
			prof.EndInterval()
		}
		tr.addChild("simpoint.Profiler.OnEvents", sp, b, ts.n, ts.d)
		sp.end()
		out.bbvSelf += ts.d
		vectors := prof.Vectors()
		if len(vectors) > 0 {
			sub := vectors
			if len(vectors) > pol.SubSample {
				stride := len(vectors) / pol.SubSample
				sub = nil
				for i := 0; i < len(vectors); i += stride {
					sub = append(sub, vectors[i])
				}
			}
			sp = tr.begin("simpoint.ChooseK+KMeans", root, b)
			chosen := simpoint.ChooseK(sub, pol.MaxK, pol.KMeansIters, pol.BICThreshold, pol.Seed)
			final := simpoint.KMeans(vectors, chosen.K, pol.KMeansIters, pol.Seed+7)
			out.kmeans += sp.end()
			out.vectors += len(vectors)
			out.k += final.K
		}

		// ckpt: snapshot at the deposit points a session with a
		// checkpoint store uses, encode and decode each snapshot, and
		// restore it into a second machine.
		stride := uint64(1)
		if k := total / interval; k > 32 {
			stride = k / 32
		}
		every := stride * interval
		m, into := fresh(), fresh()
		for done := uint64(0); done+every <= budget; done += every {
			if m.Run(every, nil) == 0 {
				break
			}
			sp = tr.begin("vm.Machine.Snapshot", root, b)
			snap := m.Snapshot()
			out.snapshot += sp.end()
			var buf bytes.Buffer
			sp = tr.begin("vm.Snapshot.WriteTo", root, b)
			nb, err := snap.WriteTo(&buf)
			out.encode += sp.end()
			if err != nil {
				continue
			}
			out.encodedBytes += nb
			sp = tr.begin("vm.ReadSnapshot", root, b)
			_, err = vm.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			out.decode += sp.end()
			if err != nil {
				continue
			}
			sp = tr.begin("vm.Machine.Restore", root, b)
			err = into.Restore(snap)
			out.restore += sp.end()
			if err == nil {
				out.snapshots++
			}
		}
	}
	return out
}
