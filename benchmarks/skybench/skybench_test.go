package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSmoke runs the whole harness — four workloads, both passes, the
// correctness gate, the golden check, results and span files — at the smoke
// sizes. It lives in the benchmark's own module, so run it with
// `go test -C benchmarks ./...`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight small simulations")
	}
	if runtime.NumCPU() < ranks {
		t.Skipf("needs %d CPUs", ranks)
	}
	out := t.TempDir()
	ok, err := run(options{
		seed: defaultSeed, smoke: true, out: out, scratch: t.TempDir(),
		goldenDir: filepath.Join("..", "golden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a correctness check failed; see the FAILED lines above")
	}

	b, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Env.NProc < ranks || rf.Env.GoVersion == "" || rf.Env.Kernel == "" {
		t.Errorf("incomplete environment record: %+v", rf.Env)
	}
	if want := 2 * len(workloads); len(rf.Runs) != want {
		t.Fatalf("%d runs in results.json, want %d", len(rf.Runs), want)
	}
	for i, res := range rf.Runs {
		w := workloads[i/2]
		defs := endToEnd
		if res.Trace {
			defs = perLayer
		}
		if res.Workload != w.name || res.Trace != (i%2 == 1) {
			t.Errorf("run %d is %s trace=%v, want %s trace=%v", i, res.Workload, res.Trace, w.name, i%2 == 1)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", res.Workload, res.Trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, found := res.Metrics[d.Name]
			switch {
			case !found:
				t.Errorf("%s: metric %s missing", res.Workload, d.Name)
			case v.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.Name, v.Unit, d.Unit)
			case !res.Trace && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", res.Workload, d.Name, v.Value)
			}
		}
		if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
			t.Errorf("%s trace=%v: %d failed of %d attempted, correct=%v", res.Workload, res.Trace, res.Failed, res.Attempted, res.Correct)
		}
		if res.Golden != "match" && !strings.HasPrefix(res.Golden, "skipped") {
			t.Errorf("%s trace=%v: golden check %q", res.Workload, res.Trace, res.Golden)
		}
		if res.Calib[0] <= 0 || res.Calib[1] <= 0 {
			t.Errorf("%s: calibration not recorded: %v", res.Workload, res.Calib)
		}
	}

	// One loadable span file per workload, each span inside its parent.
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s span file: %v", w.name, err)
		}
		seen := map[string]bool{}
		for i, e := range tf.TraceEvents {
			seen[strings.SplitN(e.Name, "[", 2)[0]] = true
			parent := int(e.Args["parent"].(float64))
			if parent < 0 {
				continue
			}
			p := tf.TraceEvents[parent]
			if parent >= i || e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+1e-3 {
				t.Errorf("%s: span %q is not inside its parent %q", w.name, e.Name, p.Name)
			}
		}
		for _, name := range []string{"workload", "setup", "run", "step", "products", "analyze", "checkpoint", "restore", "readback", "probes", "probe.shortrange.kernel", "probe.mpi.pingpong"} {
			if !seen[name] {
				t.Errorf("%s: no %q span", w.name, name)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables the benchmark prints
// from, so the driver and the command agree on names, units, directions and
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, solve []float64) string {
		var rf resultsFile
		for _, w := range workloads {
			for _, s := range solve {
				m := metrics{}
				for _, d := range endToEnd {
					m.set(d.Name, 1)
				}
				m.set("solve_s", s)
				rf.Runs = append(rf.Runs, &runResult{Workload: w.name, Metrics: m})
			}
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	base := write("base.json", []float64{1.00, 1.01, 0.99, 1.00})
	for _, c := range []struct {
		name, verdict string
		solve         []float64
		worse         bool
	}{
		{"same.json", "same", []float64{1.02, 1.03, 1.01, 1.02}, false},
		{"worse.json", "worse", []float64{1.30, 1.31, 1.29, 1.30}, true},
		{"better.json", "better", []float64{0.70, 0.71, 0.69, 0.70}, false},
		{"noisy.json", "unresolved", []float64{0.8, 1.3, 1.0, 1.6}, false},
	} {
		var buf bytes.Buffer
		worse, err := compareResults(&buf, bench, base, write(c.name, c.solve))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.worse)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, " solve_s ") && !strings.HasSuffix(line, c.verdict) {
				t.Errorf("%s: want verdict %q in %q", c.name, c.verdict, line)
			}
			if strings.Contains(line, " setup_s ") && !strings.HasSuffix(line, "same") {
				t.Errorf("%s: untouched metric not same: %q", c.name, line)
			}
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder("w")
	for _, name := range []string{"a", "b", "c"} {
		r.begin(name)
	}
	for range 3 {
		r.end()
	}
	if err := r.checkNesting(); err != nil {
		t.Fatal(err)
	}
	if r.spans[2].Parent != 1 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 {
		t.Errorf("parents %d %d %d", r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent)
	}
	r.begin("open")
	if r.checkNesting() == nil {
		t.Error("an open span passed the nesting check")
	}
	var off *recorder // the "tracing off" recorder records nothing
	off.begin("ignored")
	off.end()
}
