package check

import (
	"flag"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
)

// -sweep-workers narrows the worker-count matrix (comma-separated), so
// CI can shard the equivalence harness per worker count.
var sweepWorkers = flag.String("sweep-workers", "", "comma-separated worker counts for TestSweepEquivalence (default 2,4)")

// TestSweepEquivalence is the distributed-sweep pin: across worker
// counts and injector seeds covering mid-lease worker kills and remote
// checkpoint-tier outages/corruption, the merged journal and the
// rendered artifacts must be byte-identical to the sequential
// single-process run, with exactly-once cell accounting. SweepOptions
// derives the seeds and required kinds of a narrowed matrix.
func TestSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-equivalence matrix is slow; skipped in -short")
	}
	o := SweepOptions{
		Workers: []int{2, 4},
		RequireKinds: []faults.Kind{
			faults.WorkerKill,
			faults.NetGet,
			faults.NetPut,
			faults.NetCorrupt,
		},
	}
	if *sweepWorkers != "" {
		o.Workers = nil
		for _, s := range strings.Split(*sweepWorkers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				t.Fatalf("bad -sweep-workers entry %q", s)
			}
			o.Workers = append(o.Workers, w)
		}
	}
	if err := SweepEquivalence(o); err != nil {
		t.Fatal(err)
	}
}

// TestSweepOptionsNarrowedMatrix pins the one place the narrowed-matrix
// rule lives: a single worker count widens the seeds, and a matrix with
// no worker count of 4 or more stops requiring NetCorrupt, without
// touching the caller's kind list.
func TestSweepOptionsNarrowedMatrix(t *testing.T) {
	t.Parallel()
	kinds := []faults.Kind{faults.WorkerKill, faults.NetCorrupt}
	for _, tc := range []struct {
		workers   []int
		seeds     []uint64
		wantKinds []faults.Kind
	}{
		{nil, []uint64{1, 2}, kinds},
		{[]int{2}, []uint64{1, 2, 3, 4}, []faults.Kind{faults.WorkerKill}},
		{[]int{4}, []uint64{1, 2, 3, 4}, kinds},
		{[]int{2, 3}, []uint64{1, 2}, []faults.Kind{faults.WorkerKill}},
	} {
		o := SweepOptions{Workers: tc.workers, RequireKinds: kinds}
		o.setDefaults()
		if !slices.Equal(o.Seeds, tc.seeds) || !slices.Equal(o.RequireKinds, tc.wantKinds) {
			t.Errorf("workers %v: seeds %v kinds %v, want %v %v", tc.workers, o.Seeds, o.RequireKinds, tc.seeds, tc.wantKinds)
		}
	}
	if !slices.Equal(kinds, []faults.Kind{faults.WorkerKill, faults.NetCorrupt}) {
		t.Errorf("setDefaults modified the caller's RequireKinds: %v", kinds)
	}
}
