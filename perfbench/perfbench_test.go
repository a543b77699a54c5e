package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// testPlan is a workload's plan at the test scale, cut down to the
// seed's first three benchmarks: one per memory-boundedness class.
func testPlan(t *testing.T, name string, seed uint64) *plan {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(w, options{seed: seed, scale: testScale, work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p.benches = p.benches[:3]
	p.chunks = [][]string{p.benches}
	return p
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestWorkloads runs every workload untraced and traced and checks
// the result line: correct, and carrying exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := testPlan(t, w.name, 7)
			res := p.measure(200*time.Millisecond, traced)
			res.report(io.Discard, options{seed: 7, seconds: 1, trace: traced})
			line, err := json.Marshal(res.result(traced))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, got.Correct, got.Attempted, got.Failed, res.failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json %q", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			for name := range got.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

// TestChangedReferenceFailsCells shows the output check bites: a
// reference that no longer matches what the program computes fails the
// cells that use it.
func TestChangedReferenceFailsCells(t *testing.T) {
	p := testPlan(t, "dynamic", 1)
	cells := map[string]fingerprint{}
	for k, v := range p.refs.Cells {
		cells[k] = v
	}
	id := cellID(p.benches[0], p.cells[0].key)
	fp := cells[id]
	fp.Samples++
	cells[id] = fp
	p.refs = &refFile{Workload: p.refs.Workload, Scale: p.refs.Scale, Images: p.refs.Images, Cells: cells}
	res := p.measure(100*time.Millisecond, false)
	if res.failed != len(res.rounds) {
		t.Fatalf("failed = %d over %d rounds, want one failed cell per round", res.failed, len(res.rounds))
	}
	if res.result(false)["correct"] != false {
		t.Fatal("a run with failed cells reported correct")
	}
}

func TestRefusesUnreferencedCells(t *testing.T) {
	w, _ := workloadByName("dynamic")
	p := testPlan(t, "dynamic", 1)
	if m := missingRefs(p.refs, p.benches, p.matrix); len(m) != 0 {
		t.Fatalf("complete references reported missing: %v", m)
	}
	delete(p.refs.Cells, cellID(p.benches[1], p.cells[0].key))
	if m := missingRefs(p.refs, p.benches, p.matrix); len(m) != 1 {
		t.Fatalf("missing = %v, want the one deleted cell", m)
	}
	if _, err := newPlan(w, options{seed: 1, scale: 12345, work: t.TempDir()}); err == nil {
		t.Fatal("a scale with no references was accepted")
	}
}

// TestCommandLine runs the command with the flags BENCHMARK.json's
// command takes, on the workload whose own scale is the test scale, and
// checks the last line's shape.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "dist-sweep", "--seed", "3", "--seconds", "1", "--trace", "0",
		"--work", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	if !strings.Contains(out.String(), "host: nproc=") || !strings.Contains(out.String(), "start cold") {
		t.Fatalf("report lacks the host header or the cold-cache note:\n%s", out.String())
	}
}

func TestSelectBenchmarks(t *testing.T) {
	a, b := selectBenchmarks(1), selectBenchmarks(1)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("the same seed picked different benchmarks")
	}
	seen := map[string]bool{}
	classes := map[string]int{}
	for _, n := range a {
		if seen[n] {
			t.Fatalf("%s picked twice", n)
		}
		seen[n] = true
		classes[className(n)]++
	}
	if len(a) != 25 || len(classes) != 3 {
		t.Fatalf("picked %d benchmarks over classes %v", len(a), classes)
	}
	for i := 0; i < 3; i++ {
		if i > 0 && className(a[i]) == className(a[0]) {
			t.Fatalf("the first three picks %v do not cover the three classes", a[:3])
		}
	}
	differs := false
	for s := uint64(2); s < 10; s++ {
		if strings.Join(selectBenchmarks(s), ",") != strings.Join(a, ",") {
			differs = true
		}
	}
	if !differs {
		t.Fatal("every seed picked the same benchmarks")
	}
}

// TestSelfTimeCountsConcurrentChildrenOnce pins the self-time rule: a
// span's duration minus the part of it its children cover, where
// overlapping children (parallel workers) cover their union once.
func TestSelfTimeCountsConcurrentChildrenOnce(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &span{name: "round", start: t0, busy: 2 * time.Millisecond,
		kids: [][2]time.Time{{at(3), at(7)}, {at(1), at(5)}, {at(10), at(11)}}}
	if got, want := s.covered(), 9*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v (union 1..7 and 10..11, plus 2ms summed)", got, want)
	}
}

// TestTracedRunPairsEveryChunk pins the traced schedule: each chunk runs
// twice in a row, once of each kind, so even a run of the fewest rounds
// measures every chunk both ways and trace.overhead_pct compares the
// same work.
func TestTracedRunPairsEveryChunk(t *testing.T) {
	p := testPlan(t, "dynamic", 1)
	p.chunks = [][]string{p.benches[:1], p.benches[1:2], p.benches[2:3]}
	res := p.measure(time.Millisecond, true)
	if len(res.rounds) != 2*len(p.chunks) {
		t.Fatalf("%d rounds, want the fewest: %d", len(res.rounds), 2*len(p.chunks))
	}
	for i := 0; i < len(res.rounds); i += 2 {
		a, b := res.rounds[i], res.rounds[i+1]
		if a.chunk != i/2 || b.chunk != i/2 || a.traced == b.traced {
			t.Fatalf("rounds %d, %d: chunks %d, %d traced %v, %v: want chunk %d once of each kind",
				i, i+1, a.chunk, b.chunk, a.traced, b.traced, i/2)
		}
	}
	if res.failed != 0 || len(res.firstPass()) != len(p.benches) {
		t.Fatalf("failed %d, first pass %d cells: %v", res.failed, len(res.firstPass()), res.failures)
	}
}

// TestPeakRSSIsTheHighestChunk pins peak_rss_mb: the median over each
// chunk's rounds, then the highest over the pass, so a regression in one
// chunk shows in full.
func TestPeakRSSIsTheHighestChunk(t *testing.T) {
	mb := func(chunk int, v int64) roundOut { return roundOut{chunk: chunk, peakRSS: v * mib} }
	res := &runResult{rounds: []roundOut{mb(0, 10), mb(0, 12), mb(0, 11), mb(1, 40), mb(1, 90), mb(1, 41), mb(2, 20)}}
	if got := res.roundPeakRSS(); got != 41 {
		t.Fatalf("peak = %v MB, want 41 (chunk 1's median)", got)
	}
}

// TestRoundCost pins the host time minstr_s divides by: a session
// round's cells each scaled by the probe that followed them, and a
// sweep round's worker time between claims, each stretch scaled by the
// probe its worker ran before the next claim.
func TestRoundCost(t *testing.T) {
	if got := atRefSpeed(10*time.Millisecond, 0.5); got != 5*time.Millisecond {
		t.Fatalf("a cell run at half the reference speed scaled to %v, want 5ms", got)
	}
	p := testPlan(t, "dynamic", 1)
	o := p.round(0, 0, nil)
	if len(o.probes) != len(o.cells) {
		t.Fatalf("%d probes for %d cells", len(o.probes), len(o.cells))
	}
	var want time.Duration
	for i, c := range o.cells {
		want += atRefSpeed(c.dur, o.probes[i])
	}
	if o.cost != want || want <= 0 {
		t.Fatalf("session round cost %v, want %v", o.cost, want)
	}
	p = testPlan(t, "dist-sweep", 1)
	if o := p.round(0, 0, nil); o.cost <= 0 || len(o.probes) < len(o.cells) || len(o.problems) != 0 {
		t.Fatalf("sweep round cost %v after %d probes for %d cells, problems %v", o.cost, len(o.probes), len(o.cells), o.problems)
	}
}

// TestChunksAreFixedGroups pins how a pass is split into rounds: every
// picked benchmark runs in exactly one round, and a benchmark's round
// is the same whatever the seed, so a round's mix does not move with it.
func TestChunksAreFixedGroups(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		group := map[string]int{}
		for s := uint64(1); s <= 10; s++ {
			benches := selectBenchmarks(s)
			cs := chunks(benches, n)
			seen := 0
			for i, c := range cs {
				for _, b := range c {
					if g, ok := group[b]; ok && g != i {
						t.Fatalf("n=%d seed %d: %s in round %d, another seed's round %d", n, s, b, i, g)
					}
					group[b] = i
					seen++
				}
			}
			if len(cs) != n || seen != len(benches) {
				t.Fatalf("n=%d seed %d: %d rounds over %d of %d benchmarks", n, s, len(cs), seen, len(benches))
			}
		}
	}
}
