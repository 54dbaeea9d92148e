package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hacc/internal/analysis"
	"hacc/internal/core"
	"hacc/internal/gio"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/snapshot"
)

// Tolerances of the seed-agnostic correctness gate.
const (
	// |Σp| / Σ|p| over all particles: CIC deposit and interpolation are
	// adjoint and the pair force antisymmetric, so the sum stays at
	// single-precision round-off of the momenta.
	momentumTol = 1e-4
	// Final P(k) against the golden file (default seed only).
	goldenTol = 1e-3
)

// runOptions are the inputs of one run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64 // budget for repeated solves; one solve always runs
	trace   bool    // traced pass: span recorder on, layer probes, per-layer metrics
	sz      size
	workDir string // scratch for products, checkpoints and sockets
}

// runResult is what one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   metrics            `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Noisy     bool               `json:"noisy"`
	Calib     [2]float64         `json:"calibration_s"`
	Golden    string             `json:"golden"`

	final golden
	rec   *recorder
}

// runner carries one run's state. Ranks are goroutines of this process, so
// they share it; only rank 0 writes measurements.
type runner struct {
	w   workload
	opt runOptions
	cfg core.Config
	res *runResult
	m   metrics
	// firstSteps is the median of the first baselineSteps steps of the 2-rank
	// solves, which the 1-rank leg is compared with.
	firstSteps float64
}

// check counts one operation or correctness check.
func (r *runner) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// timed runs a collective operation between two barriers, so the result is
// the slowest rank's time.
func timed(c *mpi.Comm, fn func()) time.Duration {
	mpi.Barrier(c)
	t0 := time.Now()
	fn()
	mpi.Barrier(c)
	return time.Since(t0)
}

// launch runs body on n ranks over the workload's transport. Sockets live
// under the run's scratch directory.
func (r *runner) launch(n int, tag string, body func(c *mpi.Comm)) error {
	if !r.w.wire {
		return mpi.Run(n, body)
	}
	dir := filepath.Join(r.opt.workDir, "wire-"+tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return mpi.RunWire(n, mpi.WireOptions{Transport: "unix", Rendezvous: filepath.Join(dir, "rdv.sock")}, body)
}

// runWorkload runs one workload once and reports its metrics: the
// end-to-end ones of the untraced pass, or the per-layer ones of the traced
// pass.
func runWorkload(w workload, opt runOptions) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: opt.seed, Trace: opt.trace, Metrics: metrics{}, Info: map[string]float64{}}
	r := &runner{w: w, opt: opt, res: res, m: res.Metrics}
	r.cfg = w.config(opt.sz)
	r.cfg.Seed = opt.seed // the only way the seed reaches the program
	r.cfg.Threads = 1
	if opt.trace {
		res.rec = newRecorder(w.name)
	}

	res.Calib[0] = calibrate()
	if err := r.launch(ranks, "main", r.body); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !opt.trace {
		if err := r.launch(1, "base", r.baseline); err != nil {
			return nil, fmt.Errorf("%s 1-rank leg: %w", w.name, err)
		}
	}
	res.Calib[1] = calibrate()
	res.Noisy = math.Abs(res.Calib[1]/res.Calib[0]-1) > 0.10
	res.Correct = res.Failed == 0
	return res, nil
}

// withDirs returns the config writing its in-run products under dir. Only
// survey-products writes during the run; for the others this is the config
// unchanged.
func (r *runner) withDirs(dir string) core.Config {
	cfg := r.cfg
	if cfg.AnalysisEvery > 0 {
		cfg.AnalysisDir = filepath.Join(dir, "analysis")
	}
	if cfg.CheckpointEvery > 0 {
		cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	}
	return cfg
}

// solveStats is one timed Simulation.Run.
type solveStats struct {
	wall     time.Duration
	gaps     []time.Duration // between consecutive Run callbacks on rank 0
	mallocs  uint64
	gcPause  time.Duration
	liveHeap uint64
	counters machine.Counters   // deltas over the run
	phases   map[string]float64 // program-reported Timers phases, max over ranks
}

// solve times one Simulation.Run: the overlapped production path, with no
// barrier inside.
func (r *runner) solve(c *mpi.Comm, sim *core.Simulation, rec *recorder) solveStats {
	var st solveStats
	var m0, m1 runtime.MemStats
	before := sim.GlobalCounters()
	steps := r.cfg.Steps
	mpi.Barrier(c)
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m0)
	}
	rec.begin("run")
	rec.begin("step[0]")
	t0 := time.Now()
	last := t0
	err := sim.Run(func(step int, a float64) {
		if c.Rank() != 0 {
			return
		}
		now := time.Now()
		st.gaps = append(st.gaps, now.Sub(last))
		last = now
		rec.end()
		if step < steps {
			rec.begin(fmt.Sprintf("step[%d]", step))
		}
	})
	must(err)
	mpi.Barrier(c)
	st.wall = time.Since(t0)
	rec.end()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m1)
		st.mallocs = m1.Mallocs - m0.Mallocs
		st.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		st.liveHeap = m1.HeapAlloc
	}
	after := sim.GlobalCounters()
	st.counters = after
	st.counters.MsgsSent -= before.MsgsSent
	st.counters.BytesSent -= before.BytesSent
	st.counters.WireMsgs -= before.WireMsgs
	st.counters.WireBytes -= before.WireBytes
	st.phases = phases(c, sim)
	return st
}

// body is the 2-rank part of a run: set-up, one or more solves, the
// correctness gate, the product phase and, when traced, the layer probes.
func (r *runner) body(c *mpi.Comm) {
	root := c.Rank() == 0
	sz := r.opt.sz
	rec := r.res.rec
	if !root {
		rec = nil
	}
	var sim *core.Simulation
	build := func(cfg core.Config) time.Duration {
		sim = nil // let the previous build be collected
		return timed(c, func() {
			var err error
			sim, err = core.New(c, cfg)
			must(err)
		})
	}

	rec.begin("workload")

	// Set-up: IC generation, plans and the kernel fit, barrier to barrier.
	// The first build also pays page faults and lazy runtime set-up, so it
	// is not a sample.
	rec.begin("setup")
	setupCfg := r.withDirs(filepath.Join(r.opt.workDir, "setup"))
	build(setupCfg)
	var setup []time.Duration
	for i := 1; i < sz.setupBuilds; i++ {
		setup = append(setup, build(setupCfg))
	}
	rec.end()

	// Solves. The untraced pass repeats the solve while the budget lasts and
	// reports medians; the traced pass runs one solve with the recorder off
	// and one with it on, whose difference is the tracing overhead.
	var solves []solveStats
	var icPk *analysis.PowerSpectrum
	var cycleDir string
	start := time.Now()
	for cycle := 0; ; cycle++ {
		cycleDir = filepath.Join(r.opt.workDir, fmt.Sprintf("solve%d", cycle))
		setup = append(setup, build(r.withDirs(cycleDir)))
		icPk = sim.PowerSpectrum(sim.Cfg.AnalysisBins, false)
		cycleRec := rec
		if r.opt.trace && cycle == 0 {
			cycleRec = nil
		}
		st := r.solve(c, sim, cycleRec)
		solves = append(solves, st)
		// Rank 0 decides and tells the others: their clocks differ.
		again := cycle == 0 // traced pass: exactly two solves
		if !r.opt.trace {
			budget := time.Duration(r.opt.seconds * float64(time.Second))
			again = cycle+1 < r.w.solves || time.Since(start)+st.wall <= budget
		}
		if mpi.Bcast(c, 0, []int{b2i(again)})[0] == 0 {
			break
		}
	}
	lastSolve := solves[len(solves)-1]
	if root {
		// Every step is one operation; a step that fails ends the run in must.
		r.res.Attempted += r.cfg.Steps * len(solves)
	}

	finalPk := r.gate(c, sim, icPk)
	prod := r.products(c, sim, rec, cycleDir)
	if r.cfg.CheckpointEvery > 0 {
		r.restartCheck(c, cycleDir, finalPk)
	}
	halos := mpi.AllReduce(c, []int{len(sim.LastAnalysis.Halos)}, mpi.SumInt)[0]

	if root {
		r.res.final = golden{
			K: finalPk.K, P: finalPk.P, Halos: halos,
			KernelInteractions: lastSolve.counters.KernelInteractions,
			FFT3D:              lastSolve.counters.FFT3D,
			CICOps:             lastSolve.counters.CICOps,
			WalkNodes:          lastSolve.counters.WalkNodes,
			Rebalances:         lastSolve.counters.Rebalances,
			Msgs:               lastSolve.counters.MsgsSent,
		}
		np3 := float64(r.cfg.NParticles) * float64(r.cfg.NParticles) * float64(r.cfg.NParticles)
		r.res.Info["solves"] = float64(len(solves))
		r.res.Info["halos"] = float64(halos)
		r.res.Info["rebalances"] = float64(lastSolve.counters.Rebalances)
		if r.opt.trace {
			r.m.set("core.new_s", median(seconds(setup)))
			r.m.set("core.restore_s", median(seconds(prod.restore)))
			r.m.set("trace_overhead_ratio", solves[1].wall.Seconds()/solves[0].wall.Seconds()-1)
		} else {
			var walls, gaps []float64
			for _, s := range solves {
				walls = append(walls, s.wall.Seconds())
				gaps = append(gaps, seconds(s.gaps)...)
			}
			solve := median(walls)
			r.m.set("setup_s", median(seconds(setup)))
			r.m.set("solve_s", solve)
			r.m.set("step_p50_s", median(gaps))
			r.m.set("step_p75_s", percentile(gaps, 0.75))
			r.m.set("live_heap_mb", float64(lastSolve.liveHeap)/1e6)
			r.m.set("product_pass_p50_s", median(seconds(prod.analyze)))
			// The lower quartile of the walls, not the median: a checkpoint
			// this small is a handful of fsyncs, and the slow episodes of a
			// shared disk last a second or two. They stretch the upper half
			// of a run's samples and leave the lower quartile alone.
			r.m.set("ckpt_write_mbps", float64(prod.ckptBytes)/1e6/percentile(seconds(prod.checkpoint), 0.25))
			r.m.set("restore_s", median(seconds(prod.restore)))
			r.m.set("readback_mbps", median(prod.readRate))
			// The paper's table metric: solve_s rescaled, so not gated.
			r.res.Info["ns_per_particle_substep"] = solve * 1e9 / (np3 * float64(r.cfg.Steps*sim.Cfg.SubCycles))
			var first []float64
			for _, s := range solves {
				first = append(first, seconds(s.gaps[:sz.baselineSteps])...)
			}
			r.firstSteps = median(first)
		}
	}

	if r.opt.trace {
		rec.begin("probes")
		r.probes(c, sim, rec, lastSolve, prod)
		rec.end()
	}
	rec.end() // workload
}

// gate is the seed-agnostic correctness gate on the final state: particle
// count, finite values, momentum conservation and linear growth at low k.
// It returns the final shot-noise-subtracted P(k).
func (r *runner) gate(c *mpi.Comm, sim *core.Simulation, icPk *analysis.PowerSpectrum) *analysis.PowerSpectrum {
	np := int64(r.cfg.NParticles)
	n := sim.Dom.NGlobal()

	p := &sim.Dom.Active
	var bad int64
	var sum [6]float64 // Σp per axis, Σ|p| per axis
	for i := 0; i < p.Len(); i++ {
		for d, v := range [6]float32{p.X[i], p.Y[i], p.Z[i], p.Vx[i], p.Vy[i], p.Vz[i]} {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				bad++
			} else if d >= 3 {
				sum[d-3] += f
				sum[d] += math.Abs(f)
			}
		}
	}
	bad = mpi.AllReduce(c, []int64{bad}, mpi.SumI64)[0]
	tot := mpi.AllReduce(c, sum[:], mpi.SumF64)
	net := math.Sqrt(tot[0]*tot[0]+tot[1]*tot[1]+tot[2]*tot[2]) / (tot[3] + tot[4] + tot[5])

	endPk := sim.PowerSpectrum(sim.Cfg.AnalysisBins, false)
	finalPk := sim.PowerSpectrum(sim.Cfg.AnalysisBins, true)
	if c.Rank() != 0 {
		return finalPk
	}
	r.check(n == np*np*np, "particle count %d, want %d", n, np*np*np)
	r.check(bad == 0, "%d non-finite coordinates or momenta", bad)
	r.check(net < momentumTol, "|Σp|/Σ|p| = %.3g, want < %g", net, momentumTol)
	r.res.Info["momentum_net_ratio"] = net

	// Growth of the two lowest populated k bins between the initial
	// conditions and the final state, against D²(a).
	var p0, p1 float64
	for i, used := 0, 0; i < len(icPk.P) && used < 2; i++ {
		if icPk.NModes[i] > 0 {
			w := float64(icPk.NModes[i])
			p0 += w * icPk.P[i]
			p1 += w * endPk.P[i]
			used++
		}
	}
	g := sim.LP.Gfac
	d0, d1 := g.D(1/(1+r.cfg.ZInit)), g.D(sim.A)
	growth := (p1 / p0) / (d1 * d1 / (d0 * d0))
	r.res.Info["growth_vs_linear"] = growth
	if r.cfg.ICKind != "halo" {
		r.check(math.Abs(growth-1) <= r.opt.sz.growthTol, "low-k growth is %.3f of D²(a), want within %g", growth, r.opt.sz.growthTol)
	}
	return finalPk
}

// productStats are the timings of the product phase.
type productStats struct {
	analyze, checkpoint, restore []time.Duration
	// readRate is one read-back sweep's MB/s: bytes pulled from the files,
	// over all ranks, by the slowest rank's time.
	readRate  []float64
	ckptBytes int64
}

// products runs the sky-survey product path on the final state, in rounds of
// one in-situ analysis with catalog and spectrum emission, one checkpoint, one
// restore of that checkpoint, and one read-back sweep over every container the
// run and the rounds so far wrote. Each operation's samples are thus spread
// over the whole phase, a few seconds, instead of sitting back to back in a
// few tens of milliseconds: on a shared host interference comes in bursts,
// and a burst must not cover every sample of one metric.
func (r *runner) products(c *mpi.Comm, sim *core.Simulation, rec *recorder, cycleDir string) productStats {
	var ps productStats
	rounds := r.opt.sz.productRounds
	if r.opt.trace {
		rounds = r.opt.sz.tracedRepeats
	}
	dir := filepath.Join(r.opt.workDir, "products")
	sim.Cfg.AnalysisDir = filepath.Join(dir, "analysis")

	// Every timed operation starts from a collected heap, as each benchmark of
	// package testing does: otherwise the garbage of one operation (a sweep
	// decodes a hundred megabytes) is marked during the next one's timing, and
	// whether a mark phase was in flight decided pm-wire's checkpoint wall
	// (4 ms without, 8 ms with). Collections an operation causes itself count.
	timedOp := func(span string, i int, fn func()) time.Duration {
		mpi.Barrier(c)
		if c.Rank() == 0 { // the ranks share one heap
			runtime.GC()
		}
		rec.begin(fmt.Sprintf("%s[%d]", span, i))
		defer rec.end()
		return timed(c, fn)
	}

	var files, failed []string
	var scratch columns
	rec.begin("products")
	for i := 0; i < rounds; i++ {
		ps.analyze = append(ps.analyze, timedOp("analyze", i, func() { must(sim.Analyze()) }))
		ckpt := filepath.Join(dir, fmt.Sprintf("ckpt%02d", i))
		ps.checkpoint = append(ps.checkpoint, timedOp("checkpoint", i, func() { must(sim.Checkpoint(ckpt)) }))
		ps.restore = append(ps.restore, timedOp("restore", i, func() {
			_, err := core.Restore(c, ckpt, quiet)
			must(err)
		}))

		// Read-back: the files are dealt round-robin to the ranks, which read
		// side by side the way the writers wrote. The last sweep covers every
		// container written, and its failures are the ones counted.
		files = containers(files[:0], cycleDir, dir)
		var bytes int64
		failed = failed[:0]
		wall := timedOp("readback", i, func() {
			for j := c.Rank(); j < len(files); j += c.Size() {
				n, err := readBack(files[j], &scratch)
				bytes += n
				if err != nil {
					failed = append(failed, fmt.Sprintf("%s: %v", files[j], err))
				}
			}
		})
		bytes = mpi.AllReduce(c, []int64{bytes}, mpi.SumI64)[0]
		ps.readRate = append(ps.readRate, float64(bytes)/1e6/wall.Seconds())
	}
	rec.end()
	for _, f := range []string{core.StateFile, core.ReplicaFile} {
		fi, err := os.Stat(filepath.Join(dir, "ckpt00", f))
		must(err)
		ps.ckptBytes += fi.Size()
	}
	nFailed := mpi.AllReduce(c, []int{len(failed)}, mpi.SumInt)[0]
	if c.Rank() == 0 {
		r.res.Attempted += 3*rounds + len(files)
		r.res.Failed += nFailed
		r.res.Failures = append(r.res.Failures, failed...)
		if nFailed > len(failed) {
			r.res.Failures = append(r.res.Failures, fmt.Sprintf("%d containers failed read-back on other ranks", nFailed-len(failed)))
		}
		r.res.Info["containers"] = float64(len(files))
	}
	return ps
}

// containers appends every regular file under the given directories to files.
// A directory that does not exist holds none: only survey-products writes
// during the run.
func containers(files []string, dirs ...string) []string {
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(path string, e os.DirEntry, err error) error {
			if err == nil && e.Type().IsRegular() {
				files = append(files, path)
			}
			return err
		})
		if !errors.Is(err, fs.ErrNotExist) {
			must(err)
		}
	}
	return files
}

// quiet turns off a restored run's in-run products.
func quiet(cfg *core.Config) {
	cfg.AnalysisEvery, cfg.AnalysisDir = 0, ""
	cfg.CheckpointEvery, cfg.CheckpointDir = 0, ""
}

// columns are one rank's decode buffers, reused from column to column the
// way a reader that walks many containers would.
type columns struct {
	f32 []float32
	f64 []float64
	i64 []int64
	u64 []uint64
}

// readBack decodes every column of every writer rank of one container,
// CRC-checks the whole file with Verify, and loads catalogs and spectra
// through their typed readers. It returns the bytes it pulled from the file.
func readBack(path string, buf *columns) (int64, error) {
	rd, err := gio.Open(path)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	for rank := 0; rank < rd.NumRanks(); rank++ {
		for _, v := range rd.Vars() {
			switch v.Type {
			case gio.Float32:
				buf.f32, err = gio.ReadColumn(rd, rank, v.Name, buf.f32[:0])
			case gio.Float64:
				buf.f64, err = gio.ReadColumn(rd, rank, v.Name, buf.f64[:0])
			case gio.Int64:
				buf.i64, err = gio.ReadColumn(rd, rank, v.Name, buf.i64[:0])
			case gio.Uint64:
				buf.u64, err = gio.ReadColumn(rd, rank, v.Name, buf.u64[:0])
			}
			if err != nil {
				return 0, err
			}
		}
	}
	if err := rd.Verify(); err != nil {
		return 0, err
	}
	passes := int64(2) // column decode, Verify
	switch base := filepath.Base(path); {
	case strings.HasPrefix(base, "halos_"):
		_, _, err = snapshot.LoadHalos(path)
		passes++
	case strings.HasPrefix(base, "spectrum_"):
		_, _, err = snapshot.LoadSpectrum(path)
		passes++
	}
	return passes * rd.Size(), err
}

// restartCheck resumes from the checkpoint the last solve wrote restartGap
// steps before its end and runs to completion: the final P(k) must match the
// uninterrupted run bit for bit.
func (r *runner) restartCheck(c *mpi.Comm, cycleDir string, want *analysis.PowerSpectrum) {
	step := r.cfg.Steps - r.opt.sz.restartGap
	dir := filepath.Join(cycleDir, "ckpt", fmt.Sprintf("step%06d", step))
	sim, err := core.Restore(c, dir, quiet)
	must(err)
	must(sim.Run(nil))
	got := sim.PowerSpectrum(sim.Cfg.AnalysisBins, true)
	if c.Rank() != 0 {
		return
	}
	same := len(got.P) == len(want.P)
	for i := 0; same && i < len(got.P); i++ {
		same = math.Float64bits(got.P[i]) == math.Float64bits(want.P[i])
	}
	r.check(same, "run restored from step %d ends with a different P(k)", step)
}

// baseline is the plain 1-rank, 1-thread run of the same problem: its first
// steps against the 2-rank run's first steps give the parallel efficiency.
func (r *runner) baseline(c *mpi.Comm) {
	sim, err := core.New(c, r.withDirs(filepath.Join(r.opt.workDir, "base")))
	must(err)
	var steps []time.Duration
	for i := 0; i < r.opt.sz.baselineSteps; i++ {
		t0 := time.Now()
		must(sim.Step())
		steps = append(steps, time.Since(t0))
	}
	one := median(seconds(steps))
	r.res.Attempted += len(steps)
	r.res.Info["step_p50_1rank_s"] = one
	r.res.Info["step_p50_first_s"] = r.firstSteps
	r.m.set("par_eff_2r", one/(ranks*r.firstSteps))
}
