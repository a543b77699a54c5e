package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// fingerprint pins one result record bit for bit: the IPC estimate,
// the instructions covered, the timing samples taken and the modelled
// cost. A speed-only change to the program must leave all four equal.
type fingerprint struct {
	IPCBits   uint64 `json:"ipc_bits"`
	Instr     uint64 `json:"instructions"`
	Samples   int    `json:"samples"`
	UnitsBits uint64 `json:"cost_units_bits"`
}

func fingerprintOf(r sampling.Result) fingerprint {
	return fingerprint{
		IPCBits:   math.Float64bits(r.EstIPC),
		Instr:     r.Instructions,
		Samples:   r.Samples,
		UnitsBits: math.Float64bits(r.Cost.Units),
	}
}

func (f fingerprint) ipc() float64 { return math.Float64frombits(f.IPCBits) }

// refFile holds one workload's references at one scale: the digest of
// every benchmark's generated guest image and the fingerprint of every
// result record any seed can ask for, plus full timing of every
// benchmark as the accuracy reference.
type refFile struct {
	Workload string                 `json:"workload"`
	Scale    int                    `json:"scale"`
	Images   map[string]uint64      `json:"images"`
	Cells    map[string]fingerprint `json:"cells"`
}

//go:embed refs/*.json
var refFS embed.FS

func refName(workload string, scale int) string {
	return fmt.Sprintf("%s-%d.json", workload, scale)
}

func cellID(bench, policy string) string { return bench + "/" + policy }

// loadRefs reads the embedded references for a workload at a scale.
func loadRefs(workload string, scale int) (*refFile, error) {
	data, err := refFS.ReadFile("refs/" + refName(workload, scale))
	if err != nil {
		return nil, fmt.Errorf("no references for %s at scale %d: %w", workload, scale, err)
	}
	var rf refFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("references for %s: %w", workload, err)
	}
	if rf.Workload != workload || rf.Scale != scale {
		return nil, fmt.Errorf("references file %s names %s at scale %d", refName(workload, scale), rf.Workload, rf.Scale)
	}
	return &rf, nil
}

// testScale is the scale the self-test runs every workload at; each
// workload's references are recorded at it as well as at its own scale.
const testScale = 2_000_000

// recordScales is the scales a workload's references are recorded at.
func recordScales(w workloadDef) []int {
	if w.scale == testScale {
		return []int{w.scale}
	}
	return []int{w.scale, testScale}
}

// referencePolicies is every policy any seed of the workload can run,
// plus full timing as the accuracy reference.
func referencePolicies(w workloadDef, scale int) []sampling.Policy {
	var out []sampling.Policy
	seen := map[string]bool{}
	add := func(p sampling.Policy) {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			out = append(out, p)
		}
	}
	for s := uint64(0); s < statSeeds; s++ {
		for _, p := range w.policies(scale, s) {
			add(p)
		}
	}
	add(sampling.FullTiming{})
	return out
}

// recordRefs runs every reference cell of a workload at a scale on
// every suite benchmark through experiments.Runner and writes the
// references file into dir. The runner's results are bit-identical to
// a single session's and to the distributed sweep's (the repository's
// equivalence tests pin both), so one recorder serves every workload.
func recordRefs(w workloadDef, scale int, dir string) (string, error) {
	rf := refFile{Workload: w.name, Scale: scale, Images: map[string]uint64{}, Cells: map[string]fingerprint{}}
	for _, spec := range workload.Suite {
		img, _ := workload.BuildScaled(spec, scale)
		rf.Images[spec.Name] = img.Digest()
	}
	r := experiments.NewRunner(experiments.Options{
		Scale:       scale,
		Benchmarks:  workload.Names(),
		Parallelism: runtime.NumCPU(),
		CkptOff:     true,
	})
	defer r.Close()
	results, err := r.RunAll(referencePolicies(w, scale))
	if err != nil {
		return "", err
	}
	if fs := r.Failures(); len(fs) > 0 {
		return "", fmt.Errorf("%d reference cells failed: %v", len(fs), fs[0])
	}
	for bench, byPolicy := range results {
		for policy, res := range byPolicy {
			rf.Cells[cellID(bench, policy)] = fingerprintOf(res)
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, refName(w.name, scale))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// missingRefs lists the cells of a plan that have no reference; a
// plan with any is refused rather than run unchecked.
func missingRefs(rf *refFile, benches []string, ps []sampling.Policy) []string {
	var out []string
	for _, b := range benches {
		if _, ok := rf.Images[b]; !ok {
			out = append(out, b+" (image)")
		}
		for _, p := range append(ps[:len(ps):len(ps)], sampling.FullTiming{}) {
			if _, ok := rf.Cells[cellID(b, p.Name())]; !ok {
				out = append(out, cellID(b, p.Name()))
			}
		}
	}
	sort.Strings(out)
	return out
}
