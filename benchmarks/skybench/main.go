// Skybench is the repository's end-to-end and per-layer benchmark: four
// named workloads, one command, a correctness gate, and the comparison tool
// later performance changes are judged with. See benchmarks/README.md.
//
//	bash benchmarks/run.sh                          # all workloads, both passes
//	bash benchmarks/run.sh -workload pm-wire -seed 7 -seconds 10 -trace 0
//	bash benchmarks/run.sh -compare before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command's flags.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	out          string
	goldenDir    string
	scratch      string // parent of the run's scratch directory
	smoke        bool
	updateGolden bool
}

// resultsFile is what a run of the command leaves in its output directory.
type resultsFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: all four, both passes)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the initial conditions; reaches the program only as Config.Seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "budget for repeated solves in one run; one solve always runs")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for results and span files")
	flag.StringVar(&o.goldenDir, "golden", filepath.Join("benchmarks", "golden"), "directory of the golden files")
	flag.BoolVar(&o.smoke, "smoke", false, "small sizes: checks the harness, measures nothing worth keeping")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the golden files from this run (default seed only)")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare a b, each a results file or a directory of them")
	flag.Parse()
	// Scratch stays inside the checkout, on a short relative path: unix
	// socket names are limited to about a hundred bytes.
	o.scratch = filepath.Join(".bench_build", "tmp")

	var err error
	code := 0
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files or directories")
			break
		}
		var worse bool
		worse, err = compareResults(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if worse {
			code = 1
		}
	default:
		var ok bool
		ok, err = run(o)
		if !ok {
			code = 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		code = 2
	}
	os.Exit(code)
}

// run executes the requested workloads and reports whether every
// correctness check passed.
func run(o options) (bool, error) {
	if runtime.NumCPU() < ranks {
		return false, fmt.Errorf("%d CPU available; the workloads run %d ranks side by side and their timings mean nothing on fewer", runtime.NumCPU(), ranks)
	}
	if o.updateGolden && o.seed != defaultSeed {
		return false, fmt.Errorf("-update-golden records seed %d only", defaultSeed)
	}
	todo := workloads
	passes := []bool{false, true}
	if o.workload != "" {
		w, found := findWorkload(o.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workload{w}
		passes = []bool{o.trace != 0}
	}
	sz := fullSize
	if o.smoke {
		sz = smokeSize
		o.seconds = 0 // one solve per run
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return false, err
	}
	workDir, err := os.MkdirTemp(o.scratch, "run")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(workDir)

	file := resultsFile{Env: readEnvironment()}
	ok := true
	var last *runResult
	for _, w := range todo {
		for _, trace := range passes {
			dir := filepath.Join(workDir, fmt.Sprintf("%s-t%d", w.name, b2i(trace)))
			res, err := runWorkload(w, runOptions{seed: o.seed, seconds: o.seconds, trace: trace, sz: sz, workDir: dir})
			if err != nil {
				return false, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return false, err
			}
			gp := goldenPath(o.goldenDir, o.smoke, w.name)
			if o.updateGolden && !trace {
				if err := writeGolden(gp, res); err != nil {
					return false, err
				}
			}
			if err := checkGolden(gp, res); err != nil {
				return false, err
			}
			if trace {
				if err := res.rec.checkNesting(); err != nil {
					return false, fmt.Errorf("%s spans: %w", w.name, err)
				}
				if err := res.rec.writeChrome(filepath.Join(o.out, w.name+".trace.json")); err != nil {
					return false, err
				}
			}
			printResult(res)
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}

	name := "results.json"
	if o.workload != "" {
		name = fmt.Sprintf("results.%s.seed%d.t%d.json", o.workload, o.seed, o.trace)
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	if o.workload != "" {
		// The driver reads this line: the last one on standard output.
		line, err := json.Marshal(map[string]any{
			"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
		})
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return ok, nil
}

// printResult prints every metric of a run by name with its unit, in table
// order, then the counts and checks behind `correct`.
func printResult(res *runResult) {
	pass, defs := "untraced pass", endToEnd
	if res.Trace {
		pass, defs = "traced pass", perLayer
	}
	noisy := ""
	if res.Noisy {
		noisy = "  NOISY: do not trust these timings"
	}
	fmt.Printf("== %s  seed %d  %s  calibration %.3f s before, %.3f s after%s\n",
		res.Workload, res.Seed, pass, res.Calib[0], res.Calib[1], noisy)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("  %-46s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (info) %-39s %14.6g\n", k, res.Info[k])
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("  ops_failed_ratio %g (%d failed of %d attempted)  golden: %s\n", ratio, res.Failed, res.Attempted, res.Golden)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}
