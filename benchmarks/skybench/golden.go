package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeed is the seed the golden files were recorded with.
const defaultSeed = 42

// golden is the recorded outcome of one workload at the default seed: the
// final P(k), the halo count and the exact work counters. The program is
// bitwise deterministic for a seed on one architecture and kernel build, so
// the counters must match exactly there; P(k) is held to goldenTol.
type golden struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	GOARCH   string `json:"goarch"`
	Kernel   string `json:"kernel"`

	K                  []float64 `json:"k"`
	P                  []float64 `json:"p"`
	Halos              int       `json:"halos"`
	KernelInteractions int64     `json:"kernel_interactions"`
	FFT3D              int64     `json:"fft3d"`
	CICOps             int64     `json:"cic_ops"`
	WalkNodes          int64     `json:"walk_nodes"`
	Rebalances         int64     `json:"rebalances"`
	// Messages, not bytes: a checkpoint's meta blob carries the output
	// directories, so survey-products' byte count moves with their length.
	Msgs int64 `json:"msgs"`
}

func goldenPath(dir string, smoke bool, workload string) string {
	if smoke {
		workload = "smoke-" + workload
	}
	return filepath.Join(dir, workload+".json")
}

func writeGolden(path string, res *runResult) error {
	g := res.final
	g.Workload, g.Seed, g.GOARCH, g.Kernel = res.Workload, res.Seed, runtime.GOARCH, kernelImpl
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkGolden compares a default-seed run with its golden file and counts
// the comparison as one correctness check. Other seeds, and builds the file
// was not recorded on, pass on the seed-agnostic gate alone.
func checkGolden(path string, res *runResult) error {
	if res.Seed != defaultSeed {
		res.Golden = "not applicable (seed is not the default)"
		return nil
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		res.Golden = "absent"
		return nil
	}
	if err != nil {
		return err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if g.GOARCH != runtime.GOARCH || g.Kernel != kernelImpl {
		res.Golden = fmt.Sprintf("skipped (recorded on %s/%s)", g.GOARCH, g.Kernel)
		return nil
	}
	f := res.final
	var diffs []string
	dev := 0.0
	if len(f.P) != len(g.P) {
		diffs = append(diffs, fmt.Sprintf("P(k) has %d bins, golden %d", len(f.P), len(g.P)))
	} else {
		for i := range g.P {
			if g.P[i] != 0 {
				dev = math.Max(dev, math.Abs(f.P[i]/g.P[i]-1))
			}
		}
		if dev > goldenTol {
			diffs = append(diffs, fmt.Sprintf("P(k) deviates by %.3g", dev))
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"halos", int64(f.Halos), int64(g.Halos)},
		{"kernel_interactions", f.KernelInteractions, g.KernelInteractions},
		{"fft3d", f.FFT3D, g.FFT3D},
		{"cic_ops", f.CICOps, g.CICOps},
		{"walk_nodes", f.WalkNodes, g.WalkNodes},
		{"rebalances", f.Rebalances, g.Rebalances},
		{"msgs", f.Msgs, g.Msgs},
	} {
		if c.got != c.want {
			diffs = append(diffs, fmt.Sprintf("%s = %d, golden %d", c.name, c.got, c.want))
		}
	}
	res.Info["pk_max_rel_dev"] = dev
	res.Attempted++
	res.Golden = "match"
	if len(diffs) > 0 {
		res.Failed++
		res.Correct = false
		res.Golden = "mismatch"
		res.Failures = append(res.Failures, fmt.Sprintf("golden %s: %v", path, diffs))
	}
	return nil
}
