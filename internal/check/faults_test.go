package check

import (
	"testing"

	"repro/internal/faults"
)

// TestFaultEquivalence is the robustness pin: across multiple injector
// seeds covering disk I/O errors, checkpoint corruption (torn writes
// and flipped bytes), measurement panics, hangs, and transient errors,
// the rendered artifacts must be byte-identical to a fault-free run
// with zero recorded cell failures.
func TestFaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-equivalence sweep is slow; skipped in -short")
	}
	err := FaultEquivalence(FaultOptions{
		Seeds: []uint64{1, 2, 3},
		RequireKinds: []faults.Kind{
			faults.DiskRead,
			faults.DiskWrite,
			faults.DiskSync,
			faults.CorruptRead,
			faults.TornWrite,
			faults.RunPanic,
			faults.RunHang,
			faults.RunError,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiffSummary pins the labelled first-difference report the
// byte-identity harnesses print, including a side that ends first.
func TestDiffSummary(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		a, b string
		want string
	}{
		{"x\ny\n", "x\nz\n", "first diff at line 2:\n  plain:        \"y\"\n  instrumented: \"z\""},
		{"x", "x\ny", "first diff at line 2:\n  plain:        <EOF>\n  instrumented: \"y\""},
		{"x\ny", "x", "first diff at line 2:\n  plain:        \"y\"\n  instrumented: <EOF>"},
	} {
		if got := DiffSummary("plain", "instrumented", []byte(tc.a), []byte(tc.b)); got != tc.want {
			t.Errorf("DiffSummary(%q, %q) =\n%s\nwant\n%s", tc.a, tc.b, got, tc.want)
		}
	}
}
