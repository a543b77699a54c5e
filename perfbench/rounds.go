package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// plan is one run's resolved inputs: the workload at its scale, the
// benchmarks the seed picked, the cells to execute and their
// references.
type plan struct {
	w       workloadDef
	scale   int
	benches []string
	// chunks split benches into the rounds of one pass.
	chunks [][]string
	matrix []sampling.Policy
	cells  []cellPolicy
	refs   *refFile
	work   string // scratch directory for journals, WALs and checkpoints
	nproc  int    // most cells in flight at once
}

// cellRun is one executed cell: its result records, or the error that
// replaced them, and its host duration (zero where the benchmark cannot
// see it, in an untraced distributed sweep).
type cellRun struct {
	bench   string
	cp      cellPolicy
	records []sampling.Result
	err     error
	dur     time.Duration
}

// roundOut is one round: every cell of one chunk executed once, behind
// a fresh set-up of the workload's entry point.
type roundOut struct {
	traced bool
	chunk  int
	setup  time.Duration // set-up before the first cell starts
	build  time.Duration // workload.Build share of the set-up
	// wall runs from the first cell's start to the last cell's end,
	// less a session round's probes; a runner round's probes overlap
	// its cells and are included.
	wall time.Duration
	// cost is the host time minstr_s divides by, at the reference host
	// speed (probe.go): the sum of the round's scaled cells over the
	// cells run at once. Session and runner rounds follow every cell
	// with a probe on the cell's goroutine and scale the cell's time by
	// it. A sweep's cells run inside the program's workers, so its
	// workers' clients probe before each claim (probingTransport), and
	// each stretch of a worker's time between two claims, the cell it
	// ran and the requests that carried it, is scaled by the probe that
	// ends it.
	cost time.Duration
	// probes are the host speeds the round's probes measured.
	probes []float64
	cells  []cellRun
	// problems are failures outside any one cell's records: a changed
	// guest image, a worker error, broken exactly-once accounting.
	problems []string

	peakRSS    int64  // resident-set high-water mark sampled over the round
	allocBytes uint64 // Go heap bytes allocated during the round
	gcCycles   uint32

	// Traced rounds only.
	reg          *obs.Registry // sessions, runners, workers and their stores
	serverReg    *obs.Registry // the sweep server's disk-backed store
	busy         time.Duration // cell time (worker time in a sweep), summed
	storeBytes   int64
	journalWrite time.Duration
	coord        sweep.CoordStats
	transports   []*sweepTransport
}

// pollInterval is how long a sweep worker waits after an empty claim.
const pollInterval = 20 * time.Millisecond

// serverStoreBytes bounds the sweep server's in-memory checkpoint tier;
// its disk tier holds every checkpoint, so a small budget only moves
// rare remote reads to disk while keeping the run's memory small.
const serverStoreBytes = 64 << 20

// sweepTimeout bounds one distributed sweep so a wedged protocol fails
// the run instead of hanging it.
const sweepTimeout = 120 * time.Second

// env is what a round's set-up builds for its cells.
type env struct {
	benches []string
	runner  *experiments.Runner
	journal string
	dir     string
	store   *ckpt.Store
	coord   *sweep.Coordinator
	srv     *httptest.Server
}

// round runs every cell of one chunk once. A traced round attaches an
// obs registry and records spans into tr; an untraced one does neither.
func (p *plan) round(idx, chunk int, tr *tracer) roundOut {
	o := roundOut{traced: tr != nil, chunk: chunk}
	if o.traced {
		o.reg = obs.NewRegistry()
		if p.w.kind == sweepKind {
			o.serverReg = obs.NewRegistry()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("round", nil, "")
	t0 := time.Now()
	e, err := p.setup(&o, tr, root, idx, p.chunks[o.chunk])
	o.setup = time.Since(t0)
	if err != nil {
		o.problems = append(o.problems, err.Error())
	} else {
		switch p.w.kind {
		case sessionKind:
			p.sessionCells(&o, tr, root, e)
		case runnerKind:
			p.runnerCells(&o, tr, root, e)
		case sweepKind:
			p.sweepCells(&o, tr, root, e)
		}
		p.teardown(&o, tr, root, e)
	}
	root.end()
	runtime.ReadMemStats(&ms1)
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	o.gcCycles = ms1.NumGC - ms0.NumGC
	return o
}

// setup does everything a round does before its first cell starts:
// builds every guest image of the chunk, then constructs the runner and
// its journal, or the checkpoint store, WAL-backed coordinator and
// loopback server of a sweep.
func (p *plan) setup(o *roundOut, tr *tracer, root *span, idx int, benches []string) (*env, error) {
	sp := tr.begin("setup", root, "")
	defer sp.end()
	e := &env{benches: benches}
	p.buildImages(o, tr, sp, benches)
	switch p.w.kind {
	case runnerKind:
		e.journal = filepath.Join(p.work, fmt.Sprintf("journal-%d.jsonl", idx))
		os.Remove(e.journal) // a stale journal would be replayed
		s := tr.begin("experiments.NewRunner", sp, "")
		e.runner = experiments.NewRunner(experiments.Options{
			Scale:       p.scale,
			Benchmarks:  benches,
			Parallelism: p.nproc,
			Journal:     e.journal,
			Obs:         o.reg,
		})
		s.end()
	case sweepKind:
		e.dir = filepath.Join(p.work, fmt.Sprintf("sweep-%d", idx))
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		s := tr.begin("ckpt.New", sp, "")
		store, err := ckpt.New(ckpt.Options{Dir: filepath.Join(e.dir, "ckpt"), MaxBytes: serverStoreBytes, Obs: o.serverReg})
		s.end()
		if err != nil {
			return nil, fmt.Errorf("checkpoint store: %w", err)
		}
		e.store = store
		s = tr.begin("sweep.NewWALCoordinator", sp, "")
		e.coord, err = sweep.NewWALCoordinator(sweep.Config{Scale: p.scale, Benchmarks: benches},
			filepath.Join(e.dir, "coord.wal"), nil, nil)
		s.end()
		if err != nil {
			os.RemoveAll(e.dir)
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		s = tr.begin("sweep.NewServer", sp, "")
		e.srv = httptest.NewServer(sweep.NewServer(e.coord, store, nil, nil).Handler())
		s.end()
	}
	return e, nil
}

// teardown releases what setup built. A traced round first times the
// journal merge on the round's records.
func (p *plan) teardown(o *roundOut, tr *tracer, root *span, e *env) {
	switch p.w.kind {
	case runnerKind:
		defer os.Remove(e.journal)
		if o.traced {
			if st, ok := e.runner.CkptStats(); ok {
				o.storeBytes = st.Bytes
			}
		}
		if err := e.runner.Close(); err != nil {
			o.problems = append(o.problems, fmt.Sprintf("closing the runner: %v", err))
		}
		if o.traced {
			recs, err := experiments.ReadJournal(e.journal, p.scale)
			if err != nil {
				o.problems = append(o.problems, fmt.Sprintf("reading the journal: %v", err))
			}
			merged := e.journal + ".merged"
			sp := tr.begin("experiments.WriteJournalFile", root, "")
			if err := experiments.WriteJournalFile(merged, p.scale, recs); err != nil {
				o.problems = append(o.problems, fmt.Sprintf("writing the journal: %v", err))
			}
			o.journalWrite = sp.end()
			os.Remove(merged)
		}
	case sweepKind:
		defer os.RemoveAll(e.dir)
		if o.traced {
			o.storeBytes = e.store.Stats().Bytes
			sp := tr.begin("Coordinator.WriteJournal", root, "")
			if err := e.coord.WriteJournal(filepath.Join(e.dir, "merged.jsonl")); err != nil {
				o.problems = append(o.problems, fmt.Sprintf("writing the journal: %v", err))
			}
			o.journalWrite = sp.end()
		}
		e.srv.Close()
		if err := e.coord.CloseWAL(); err != nil {
			o.problems = append(o.problems, fmt.Sprintf("closing the WAL: %v", err))
		}
	}
}

// buildImages builds every benchmark's guest image, as the program does
// before a cell runs. The images are dropped: sessions, runners and
// workers build their own, so this is the set-up's stand-in for that
// work, which the benchmark cannot time from outside.
func (p *plan) buildImages(o *roundOut, tr *tracer, parent *span, benches []string) {
	t0 := time.Now()
	for _, b := range benches {
		sp := tr.begin("workload.Build", parent, b)
		spec, err := workload.ByName(b)
		if err != nil {
			o.problems = append(o.problems, err.Error())
		} else {
			workload.BuildScaled(spec, p.scale)
		}
		sp.end()
	}
	o.build = time.Since(t0)
}

// checkImages compares the digest of every benchmark's guest image with
// the reference, so a changed input is reported before any cell runs.
func (p *plan) checkImages() []string {
	var problems []string
	for _, b := range p.benches {
		spec, err := workload.ByName(b)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		img, _ := workload.BuildScaled(spec, p.scale)
		if d := img.Digest(); d != p.refs.Images[b] {
			problems = append(problems, fmt.Sprintf("%s: guest image digest %#x, reference %#x", b, d, p.refs.Images[b]))
		}
	}
	return problems
}

// sessionCells runs one core.Session at a time under Policy.Run, each
// followed by a probe that scales its time to the reference host speed.
func (p *plan) sessionCells(o *roundOut, tr *tracer, root *span, e *env) {
	cp := p.cells[0]
	pol := cp.policies[0]
	for _, b := range e.benches {
		spec, err := workload.ByName(b)
		if err != nil {
			o.cells = append(o.cells, cellRun{bench: b, cp: cp, err: err})
			continue
		}
		id := cellID(b, cp.key)
		c0 := time.Now()
		cell := tr.begin("cell", root, id)
		sp := tr.begin("core.NewSession", cell, id)
		s := core.NewSession(spec, core.Options{Scale: p.scale, Obs: o.reg})
		sp.end()
		sp = tr.begin("Policy.Run", cell, id)
		res, err := pol.Run(s)
		sp.end()
		cell.end()
		d := time.Since(c0)
		speed := probe(cellProbeSteps)
		o.probes = append(o.probes, speed)
		o.wall += d
		o.cost += atRefSpeed(d, speed)
		o.busy += d
		o.cells = append(o.cells, cellRun{bench: b, cp: cp, records: []sampling.Result{res}, err: err, dur: d})
	}
}

// runnerCells runs the chunk's cells through the runner from nproc
// goroutines, as Runner.RunAll would, timing each cell and following it
// with a probe on the same goroutine.
func (p *plan) runnerCells(o *roundOut, tr *tracer, root *span, e *env) {
	type job struct {
		bench string
		cp    cellPolicy
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < p.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id := cellID(j.bench, j.cp.key)
				c0 := time.Now()
				cell := tr.begin("cell", root, id)
				run := cellRun{bench: j.bench, cp: j.cp}
				for _, pol := range j.cp.policies {
					// The first call executes the cell; the others read
					// the runner's memo of the same execution.
					sp := tr.begin("Runner.Run", cell, id)
					res, err := e.runner.Run(j.bench, pol)
					sp.end()
					if err != nil {
						run.err = err
						break
					}
					run.records = append(run.records, res)
				}
				cell.end()
				run.dur = time.Since(c0)
				speed := probe(cellProbeSteps)
				mu.Lock()
				o.cells = append(o.cells, run)
				o.busy += run.dur
				o.probes = append(o.probes, speed)
				o.cost += atRefSpeed(run.dur, speed) / time.Duration(p.nproc)
				mu.Unlock()
			}
		}()
	}
	for _, b := range e.benches {
		for _, cp := range p.cells {
			jobs <- job{b, cp}
		}
	}
	close(jobs)
	wg.Wait()
	o.wall = time.Since(start)
}

// sweepCells runs nproc workers against the round's coordinator, each
// over its own loopback connection, then checks exactly-once
// accounting and collects the merged journal's results.
func (p *plan) sweepCells(o *roundOut, tr *tracer, root *span, e *env) {
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make([]error, p.nproc)
	probing := make([]*probingTransport, p.nproc)
	start := time.Now()
	for i := 0; i < p.nproc; i++ {
		conn := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer conn.CloseIdleConnections()
		var rt http.RoundTripper = conn
		wsp := tr.begin("worker", root, "")
		if o.traced {
			st := &sweepTransport{base: conn, tr: tr, worker: wsp, cellDur: map[string]time.Duration{}}
			o.transports = append(o.transports, st)
			rt = st
		}
		probing[i] = &probingTransport{base: rt}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w0 := time.Now()
			_, errs[i] = sweep.RunWorker(sweep.WorkerOptions{
				Client:  sweep.NewClient(e.srv.URL, &http.Client{Transport: probing[i]}),
				ID:      fmt.Sprintf("w%d", i),
				Context: ctx,
				Poll:    pollInterval,
				Obs:     o.reg,
			})
			wsp.end()
			mu.Lock()
			o.busy += time.Since(w0) - probing[i].spent
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	o.wall = time.Since(start)
	for _, pt := range probing {
		o.cost += pt.cost / time.Duration(p.nproc)
		o.probes = append(o.probes, pt.speeds...)
	}

	for i, err := range errs {
		if err != nil {
			o.problems = append(o.problems, fmt.Sprintf("worker w%d: %v", i, err))
		}
	}
	// Exactly-once: with no faults injected every cell completes once
	// and no lease is ever re-issued.
	cst := e.coord.Stats()
	o.coord = cst
	if !e.coord.Done() || cst.Completions != uint64(cst.Cells) || cst.Reissues != 0 {
		o.problems = append(o.problems, fmt.Sprintf("exactly-once violated: done=%v cells=%d completions=%d reissues=%d",
			e.coord.Done(), cst.Cells, cst.Completions, cst.Reissues))
	}
	byID := map[string]sampling.Result{}
	for _, rec := range e.coord.Merged() {
		if rec.Kind == "result" && rec.Result != nil {
			byID[cellID(rec.Bench, rec.Policy)] = *rec.Result
		}
	}
	for _, b := range e.benches {
		for _, cp := range p.cells {
			run := cellRun{bench: b, cp: cp}
			for _, t := range o.transports {
				run.dur += t.cellDur[cellID(b, cp.key)]
			}
			for _, pol := range cp.policies {
				res, ok := byID[cellID(b, pol.Name())]
				if !ok {
					run.err = fmt.Errorf("no %s record in the merged journal", pol.Name())
					break
				}
				run.records = append(run.records, res)
			}
			o.cells = append(o.cells, run)
		}
	}
}

// setupSeconds times the set-up of every chunk of a pass in turn, each
// torn down before the next, in seconds at the reference host speed:
// a short probe right before each set-up scales it.
func (p *plan) setupSeconds() []float64 {
	out := make([]float64, len(p.chunks))
	for i, benches := range p.chunks {
		var o roundOut
		speed := probe(shortProbeSteps)
		t0 := time.Now()
		e, err := p.setup(&o, nil, nil, -1-i, benches)
		out[i] = atRefSpeed(time.Since(t0), speed).Seconds()
		if err == nil {
			p.teardown(&o, nil, nil, e)
		}
	}
	return out
}

// probingTransport runs a probe on a sweep worker's goroutine before
// each claim and scales the worker's time since its previous claim by
// it, as a session scales a cell by the probe that follows it. One
// worker uses it, one request at a time.
type probingTransport struct {
	base   http.RoundTripper
	last   time.Time     // end of the previous probe; zero before the first claim
	cost   time.Duration // worker time between claims at the reference speed
	spent  time.Duration // time inside probes
	speeds []float64
}

func (t *probingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if route(req) == "claim" {
		now := time.Now()
		speed := probe(cellProbeSteps)
		if !t.last.IsZero() {
			t.cost += atRefSpeed(now.Sub(t.last), speed)
		}
		t.speeds = append(t.speeds, speed)
		t.last = time.Now()
		t.spent += t.last.Sub(now)
	}
	return t.base.RoundTrip(req)
}
