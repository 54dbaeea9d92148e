package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison needs — the
// workloads and each end-to-end metric's direction and regression bound — and
// the per-layer list the test pins.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// loadRuns reads one results file, or every results file under a directory,
// and pools the untraced runs' values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() && strings.HasSuffix(p, ".json") && !strings.HasSuffix(p, ".trace.json") {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	pool := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, run := range rf.Runs {
			if run.Trace {
				continue
			}
			if pool[run.Workload] == nil {
				pool[run.Workload] = map[string][]float64{}
			}
			for name, v := range run.Metrics {
				pool[run.Workload][name] = append(pool[run.Workload][name], v.Value)
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs found", path)
	}
	return pool, nil
}

// compareResults prints one row per end-to-end metric and workload: the two
// medians, the change (positive is worse) and a verdict. A metric is worse
// when b's median is worse than a's by more than the bound; better when it
// is better by more than the bound; unresolved when either side's run-to-run
// spread (interquartile distance over the median, four runs or more) is
// wider than the bound, whatever the medians say. It reports whether any row
// is worse.
func compareResults(w io.Writer, benchPath, a, b string) (bool, error) {
	bj, err := readBenchmarkJSON(benchPath)
	if err != nil {
		return false, err
	}
	ra, err := loadRuns(a)
	if err != nil {
		return false, err
	}
	rb, err := loadRuns(b)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, wl := range bj.Workloads {
		for _, d := range bj.EndToEnd {
			va, vb := ra[wl.Name][d.Name], rb[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %7s %7s  missing\n", wl.Name, d.Name, "-", "-", "-", "-", "-")
				anyWorse = true
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "same"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				anyWorse = true
			case change < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*change, 100*sp, 100*d.Bound, verdict)
		}
	}
	return anyWorse, nil
}
