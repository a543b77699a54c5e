package check

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestResultFingerprintCoversEveryField perturbs a real Result one site
// at a time — every leaf field, every slice's length, every pointer's
// nil-ness, found by reflection so a field added to sampling.Result is
// covered automatically — and requires diffResults to report each
// perturbation under the perturbed field's name.
func TestResultFingerprintCoversEveryField(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sampling.NewDynamic(vm.MetricCPU, 300, 1, 10).Run(core.NewSession(spec, core.Options{Scale: 50_000}))
	if err != nil {
		t.Fatal(err)
	}
	// Give every empty slice an element and every nil pointer a target,
	// so the fields inside them are perturbed too.
	fill(reflect.ValueOf(&base).Elem())
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() sampling.Result {
		var r sampling.Result
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := diffResults(base, clone()); err != nil {
		t.Fatalf("identical results reported as different: %v", err)
	}

	var sites []string
	for i := 0; ; i++ {
		got := clone()
		n := i
		path := perturb(t, reflect.ValueOf(&got).Elem(), "", &n)
		if path == "" {
			break
		}
		sites = append(sites, path)
		if err := diffResults(base, got); err == nil {
			t.Errorf("perturbed %s: not reported", path)
		} else if !strings.HasPrefix(err.Error(), path+": ") {
			t.Errorf("perturbed %s: reported as %q", path, err)
		}
	}
	for _, want := range []string{"Policy", "Bench", "Trace", "Trace[0].IPC", "Detections[0]",
		"CPIInterval", "CPIInterval.Hi", "Cost.ByMode[0]", "Cost.Instrs[0]", "Cost.Switches",
		"Cost.Restores", "Cost.Seconds", "Cost.PaperSeconds"} {
		if !slices.Contains(sites, want) {
			t.Errorf("site %s never perturbed (sites: %v)", want, sites)
		}
	}
}

// fill gives every empty slice one zero element and every nil pointer a
// zero target, recursively.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	}
}

// perturb walks v depth-first and changes its n-th perturbation site —
// a leaf value, a slice's length, or a pointer's nil-ness — returning
// the site's field path, or "" once n is past the last site. Slices
// are entered at their first element only.
func perturb(t *testing.T, v reflect.Value, path string, n *int) string {
	here := func() bool { *n--; return *n < 0 }
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if p := perturb(t, v.Field(i), name, n); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer:
		if here() {
			v.SetZero()
			return path
		}
		return perturb(t, v.Elem(), path, n)
	case reflect.Slice:
		if here() {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return path
		}
		return perturb(t, v.Index(0), path+"[0]", n)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := perturb(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n); p != "" {
				return p
			}
		}
		return ""
	}
	if !here() {
		return ""
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend perturb and diffResults", path, v.Kind())
	}
	return path
}
