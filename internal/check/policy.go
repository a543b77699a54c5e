package check

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DefaultPolicies returns one representative of every policy family the
// repo implements — FullTiming, SMARTS, SimPoint, Dynamic Sampling, and
// the statistical designs (Stratified, RankedSet) — configured for a
// benchmark with the given total instruction budget.
func DefaultPolicies(totalInstr uint64) []sampling.Policy {
	return []sampling.Policy{
		sampling.FullTiming{},
		sampling.DefaultSMARTS(totalInstr),
		simpoint.New(false),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 10),
		sampling.NewStratified(17),
		sampling.NewRankedSet(17),
	}
}

// A PolicyVariant is one way of running a sampling session whose Result
// must be bit-identical to the reference run's: a replay of the same
// options, or a host-side mechanism (event batching, the checkpoint
// store, observability) switched on. Such mechanisms may cost or save
// wall-clock, never change an estimate, schedule, detection, or
// modelled cost.
type PolicyVariant struct {
	// Name labels the variant in failure messages.
	Name string
	// Options derives the variant's session options from the
	// reference's.
	Options func(core.Options) core.Options
	// Ran, when non-nil, runs after each of the variant's runs has
	// matched the reference, with the options that run used, and
	// rejects a run that cannot have exercised the mechanism (so the
	// equivalence cannot pass vacuously).
	Ran func(core.Options) error
	// Done, when non-nil, rejects vacuity the same way once every
	// policy has passed, for mechanisms whose evidence accumulates
	// across policies.
	Done func() error
}

// ReplayVariants is the identity variant: a second run with the
// reference's own options. Sampling results are the repo's primary
// experimental output, so any hidden nondeterminism silently corrupts
// the reproduction; this pins policy determinism.
func ReplayVariants() []PolicyVariant {
	return []PolicyVariant{{
		Name:    "replay",
		Options: func(o core.Options) core.Options { return o },
	}}
}

// BatchVariants runs the session once per event-batch capacity in
// BatchSizes: the capacity is host-side plumbing and must never reach a
// result.
func BatchVariants() []PolicyVariant {
	vs := make([]PolicyVariant, len(BatchSizes))
	for i, bs := range BatchSizes {
		vs[i] = PolicyVariant{
			Name: fmt.Sprintf("batch=%d", bs),
			Options: func(o core.Options) core.Options {
				o.VM.EventBatch = bs
				return o
			},
		}
	}
	return vs
}

// ObsVariants attaches a fresh metrics registry and transition trace to
// every run: the obs layer may only *read* simulation state. Each run
// must actually have recorded transitions, per-mode instruction counts,
// and a non-empty snapshot, otherwise a regression that silently
// detaches the obs layer would pass.
func ObsVariants() []PolicyVariant {
	return []PolicyVariant{{
		Name: "obs",
		Options: func(o core.Options) core.Options {
			o.Obs = obs.NewRegistry()
			o.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
			return o
		},
		Ran: func(o core.Options) error {
			if o.Trace.Total() == 0 {
				return errors.New("no transitions recorded")
			}
			var counted uint64
			for _, mode := range []string{"fast", "event", "bbv", "funcwarm", "detailwarm", "timing"} {
				counted += o.Obs.Counter("vm_instructions_total", "mode", mode).Value()
			}
			if counted == 0 {
				return errors.New("no instructions counted")
			}
			if len(o.Obs.Snapshot()) == 0 {
				return errors.New("empty snapshot")
			}
			return nil
		},
	}}
}

// CkptVariants attaches one fresh in-memory checkpoint store to two
// runs per policy — the first finds it cold (for that policy), the
// second warmed by the first — and, once every policy has passed,
// requires the store to have taken deposits and served hits.
func CkptVariants() []PolicyVariant {
	store := ckpt.NewMemory()
	attach := func(o core.Options) core.Options {
		o.Ckpt = store
		return o
	}
	return []PolicyVariant{
		{Name: "ckpt-cold", Options: attach},
		{Name: "ckpt-warm", Options: attach, Done: func() error {
			st := store.Stats()
			if st.Puts == 0 {
				return errors.New("no policy deposited a checkpoint")
			}
			if st.Hits+st.NearestHits == 0 {
				return fmt.Errorf("warmed policies never hit the store: %+v", st)
			}
			return nil
		}},
	}
}

// PolicyEquivalence runs each policy's reference session once with
// opts, then once per variant, in order, on fresh sessions of bench,
// and requires every variant's Result to be bit-identical to the
// reference's under diffResults. Policies defaults to DefaultPolicies
// for the benchmark's budget.
func PolicyEquivalence(bench string, opts core.Options, policies []sampling.Policy, variants []PolicyVariant) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if policies == nil {
		policies = DefaultPolicies(spec.ScaledInstr(opts.Scale))
	}
	for _, p := range policies {
		ref, err := p.Run(core.NewSession(spec, opts))
		if err != nil {
			return fmt.Errorf("check: %s on %s: %v", p.Name(), bench, err)
		}
		for _, v := range variants {
			o := v.Options(opts)
			got, err := p.Run(core.NewSession(spec, o))
			if err != nil {
				return fmt.Errorf("check: %s on %s (%s): %v", p.Name(), bench, v.Name, err)
			}
			if err := diffResults(ref, got); err != nil {
				return fmt.Errorf("check: policy %s on %s: %s run differs from the reference: %v", p.Name(), bench, v.Name, err)
			}
			if v.Ran != nil {
				if err := v.Ran(o); err != nil {
					return fmt.Errorf("check: %s vacuous for %s on %s: %v", v.Name, p.Name(), bench, err)
				}
			}
		}
	}
	for _, v := range variants {
		if v.Done != nil {
			if err := v.Done(); err != nil {
				return fmt.Errorf("check: %s vacuous on %s: %v", v.Name, bench, err)
			}
		}
	}
	return nil
}

// diffResults is the Result fingerprint every policy-level equivalence
// goes through. It compares every field of a and b recursively —
// floats by their bits, pointers and slices by nil-ness and then
// content — and names the first differing field, so a field added to
// sampling.Result is covered without touching this function.
func diffResults(a, b sampling.Result) error {
	if path, av, bv := firstDiff("", reflect.ValueOf(a), reflect.ValueOf(b)); path != "" {
		return fmt.Errorf("%s: %s != %s", path, av, bv)
	}
	return nil
}

// firstDiff walks two values of one type depth-first and returns the
// path and rendered values of the first place they differ, or an empty
// path when they are identical.
func firstDiff(path string, a, b reflect.Value) (string, string, string) {
	nilness := func(v reflect.Value) string {
		if v.IsNil() {
			return "nil"
		}
		return "non-nil"
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if p, av, bv := firstDiff(name, a.Field(i), b.Field(i)); p != "" {
				return p, av, bv
			}
		}
		return "", "", ""
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path, nilness(a), nilness(b)
		}
		if a.IsNil() {
			return "", "", ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return path, nilness(a), nilness(b)
		}
		if a.Len() != b.Len() {
			return path, fmt.Sprintf("len %d", a.Len()), fmt.Sprintf("len %d", b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if p, av, bv := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); p != "" {
				return p, av, bv
			}
		}
		return "", "", ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path, fmt.Sprintf("%v (%#x)", a.Float(), math.Float64bits(a.Float())),
				fmt.Sprintf("%v (%#x)", b.Float(), math.Float64bits(b.Float()))
		}
		return "", "", ""
	}
	if a.Interface() != b.Interface() {
		return path, fmt.Sprint(a), fmt.Sprint(b)
	}
	return "", "", ""
}
