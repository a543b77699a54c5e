package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vm"
)

// tracer records spans around the benchmark's calls into the program.
// Spans are aggregated in memory per (name, parent name) and written
// out once, at exit. A nil *tracer records nothing, so untraced rounds
// run the same code with no span bookkeeping.
type tracer struct {
	mu   sync.Mutex
	aggs map[spanKey]*spanAgg
}

type spanKey struct{ name, parent string }

// spanAgg aggregates the spans of one (name, parent): their count,
// total and self time (duration minus the part the children cover),
// the cells they served, and every duration for percentiles.
type spanAgg struct {
	n     int
	total time.Duration
	self  time.Duration
	durs  []time.Duration
	cells map[string]bool
}

func newTracer() *tracer { return &tracer{aggs: map[spanKey]*spanAgg{}} }

// span is one open span: a name, a start, the span that caused it and
// the cell it belongs to. Its children report the intervals they
// covered, so children that ran concurrently count once towards its
// self time.
type span struct {
	t      *tracer
	name   string
	parent *span
	cell   string
	start  time.Time

	mu   sync.Mutex
	kids [][2]time.Time
	busy time.Duration // time of children a wrapper summed, known not to overlap
}

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(name string, parent *span, cell string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, name: name, parent: parent, cell: cell, start: time.Now()}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	pname := ""
	if s.parent != nil {
		pname = s.parent.name
		s.parent.mu.Lock()
		s.parent.kids = append(s.parent.kids, [2]time.Time{s.start, now})
		s.parent.mu.Unlock()
	}
	s.t.aggregate(spanKey{s.name, pname}, s.cell, 1, d, s.covered(), d)
	return d
}

// covered is the time the span's children covered: the union of their
// intervals plus the summed time of wrapper-timed children.
func (s *span) covered() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.kids, func(i, j int) bool { return s.kids[i][0].Before(s.kids[j][0]) })
	total := s.busy
	var from, to time.Time
	for i, k := range s.kids {
		switch {
		case i == 0:
			from, to = k[0], k[1]
		case k[0].After(to):
			total += to.Sub(from)
			from, to = k[0], k[1]
		case k[1].After(to):
			to = k[1]
		}
	}
	return total + to.Sub(from)
}

// addChild records n already-aggregated child spans of total duration
// d under parent: used for spans too frequent to open one by one (one
// per event batch), whose time a wrapper sums itself.
func (t *tracer) addChild(name string, parent *span, cell string, n int, d time.Duration) {
	if t == nil || n == 0 {
		return
	}
	parent.mu.Lock()
	parent.busy += d
	parent.mu.Unlock()
	t.aggregate(spanKey{name, parent.name}, cell, n, d, 0, -1)
}

// record adds one span of duration d under a parent known only by
// name: it does not count towards any open span's child time.
func (t *tracer) record(name, parent, cell string, d time.Duration) {
	t.aggregate(spanKey{name, parent}, cell, 1, d, 0, d)
}

func (t *tracer) aggregate(k spanKey, cell string, n int, d, child, single time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[k]
	if a == nil {
		a = &spanAgg{cells: map[string]bool{}}
		t.aggs[k] = a
	}
	a.n += n
	a.total += d
	a.self += d - child
	if single >= 0 {
		a.durs = append(a.durs, single)
	}
	if cell != "" {
		a.cells[cell] = true
	}
}

// durations returns every recorded duration of spans named name,
// under any parent.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for k, a := range t.aggs {
		if k.name == name {
			out = append(out, a.durs...)
		}
	}
	return out
}

// spanRow is one line of the trace file.
type spanRow struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Count   int     `json:"count"`
	Cells   int     `json:"cells"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	P50S    float64 `json:"p50_s,omitempty"`
	TailS   float64 `json:"tail_s,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// write dumps the aggregates as JSON, sorted by name then parent.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	rows := make([]spanRow, 0, len(t.aggs))
	for k, a := range t.aggs {
		r := spanRow{Name: k.name, Parent: k.parent, Count: a.n, Cells: len(a.cells),
			TotalS: a.total.Seconds(), SelfS: a.self.Seconds()}
		if len(a.durs) > 0 {
			r.P50S = percentile(a.durs, 0.5).Seconds()
			if tail, pct, ok := tailOf(a.durs); ok {
				r.TailS, r.TailPct = tail.Seconds(), pct
			}
		}
		rows = append(rows, r)
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Parent < rows[j].Parent
	})
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timedSink wraps a batch sink and sums the time spent inside its
// OnEvents: the sink's self time within the Machine.Run that feeds it.
type timedSink struct {
	inner vm.BatchSink
	d     time.Duration
	n     int
}

func (w *timedSink) OnEvent(ev *vm.Event) { w.inner.OnEvent(ev) }

func (w *timedSink) OnEvents(evs []vm.Event) {
	t0 := time.Now()
	w.inner.OnEvents(evs)
	w.d += time.Since(t0)
	w.n++
}

// sweepTransport times every request a sweep worker's client makes,
// by route. It reads claim responses to learn which cell the worker
// holds, so request spans carry cell ids, and it measures the time a
// worker waits after an empty claim before asking again.
type sweepTransport struct {
	base   http.RoundTripper
	tr     *tracer
	worker *span

	mu        sync.Mutex
	cell      string
	cellStart time.Time
	emptyAt   time.Time
	pollWait  time.Duration
	putBytes  int64
	retries   int
	cellDur   map[string]time.Duration // by cell id
}

// route names a sweep request by method and path.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/ckpt/") && r.Method == http.MethodPut:
		return "ckpt_put"
	case strings.HasSuffix(p, "/nearest"):
		return "ckpt_nearest"
	case strings.HasPrefix(p, "/v1/ckpt/"):
		return "ckpt_get"
	default:
		return strings.TrimPrefix(p, "/v1/")
	}
}

func (t *sweepTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := route(req)
	t.mu.Lock()
	if !t.emptyAt.IsZero() {
		t.pollWait += time.Since(t.emptyAt)
		t.emptyAt = time.Time{}
	}
	cell := t.cell
	t.mu.Unlock()

	sp := t.tr.begin("sweep."+name, t.worker, cell)
	resp, err := t.base.RoundTrip(req)
	if err == nil && name == "claim" && resp.StatusCode == http.StatusOK {
		t.noteClaim(resp)
	}
	sp.end()

	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || resp.StatusCode >= 500 {
		t.retries++
	}
	switch {
	case name == "ckpt_put" && req.ContentLength > 0:
		t.putBytes += req.ContentLength
	case name == "complete" && err == nil && resp.StatusCode == http.StatusOK && t.cell != "":
		// The worker held the cell from the claim's answer to the
		// completion's: one cell span.
		// Recorded beside the worker's request spans, not as their
		// parent, so the worker's self time counts each moment once.
		d := time.Since(t.cellStart)
		t.tr.record("cell", "worker", t.cell, d)
		t.cellDur[t.cell] = d
		t.cell = ""
	}
	return resp, err
}

// noteClaim reads a claim response, records which cell (if any) it
// granted, and hands the body back unread to the client. A body that
// fails to read or decode is passed on as read, for the client's
// strict decoder to report.
func (t *sweepTransport) noteClaim(resp *http.Response) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return
	}
	var claim struct {
		Done  bool `json:"done"`
		Lease *struct {
			Cell struct {
				Bench  string `json:"bench"`
				Policy string `json:"policy"`
			} `json:"cell"`
		} `json:"lease"`
	}
	if json.Unmarshal(body, &claim) != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case claim.Lease != nil:
		t.cell = cellID(claim.Lease.Cell.Bench, claim.Lease.Cell.Policy)
		t.cellStart = time.Now()
	case !claim.Done:
		t.emptyAt = time.Now()
	}
}
