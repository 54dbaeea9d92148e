package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hacc/internal/analysis"
	"hacc/internal/core"
	"hacc/internal/domain"
	"hacc/internal/fft"
	"hacc/internal/gio"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/shortrange"
	"hacc/internal/snapshot"
	"hacc/internal/spectral"
	"hacc/internal/tree"
)

// Message tags of the mpi probes (collectives use negative tags).
const (
	tagPing = 7001 + iota
	tagBulk
	tagAck
)

// phaseNames are the program's Timers phases the *.busy_s rows report.
var phaseNames = []string{"kernel", "walk", "build", "fft", "cic", machine.CommPost, machine.CommWait,
	"stream", "analysis", "checkpoint", "rebalance"}

// phases returns each Timers phase of the run, as the maximum over ranks.
// These are program-reported: the program times them itself.
func phases(c *mpi.Comm, sim *core.Simulation) map[string]float64 {
	local := make([]float64, len(phaseNames))
	for i, n := range phaseNames {
		local[i] = sim.Timers.Get(n).Seconds()
	}
	mx := mpi.AllReduce(c, local, mpi.MaxF64)
	out := map[string]float64{}
	for i, n := range phaseNames {
		out[n] = mx[i]
	}
	return out
}

// splitmix is the fixed generator behind the kernel probe's synthetic
// coordinates (the probe measures the kernel, not a workload's particles).
type splitmix uint64

func (s *splitmix) float(scale float32) float32 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return scale * float32(z>>40) / (1 << 24)
}

// probes calls each layer's public functions on the live final state, all
// ranks collectively, and reports the median of repeated calls. Counts come
// from the run's counter deltas and repeat exactly for a seed.
func (r *runner) probes(c *mpi.Comm, sim *core.Simulation, rec *recorder, st solveStats, prod productStats) {
	root := c.Rank() == 0
	reps := r.opt.sz.probeRepeats
	cfg := sim.Cfg
	m := metrics{} // every rank computes; only rank 0's copy is kept
	if root {
		m = r.m
	}
	probe := func(name string, n int, fn func()) float64 {
		rec.begin("probe." + name)
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = timed(c, fn)
		}
		rec.end()
		return median(seconds(d))
	}
	sumI := func(v int64) int64 { return mpi.AllReduce(c, []int64{v}, mpi.SumI64)[0] }
	// sent returns the messages and payload bytes all ranks post during fn.
	sent := func(fn func()) (msgs, bytes int64) {
		s0 := c.Stats()
		fn()
		s1 := c.Stats()
		return sumI(s1.Msgs - s0.Msgs), sumI(s1.Bytes - s0.Bytes)
	}
	dir := filepath.Join(r.opt.workDir, "probes")
	must(os.MkdirAll(dir, 0o755))
	steps := float64(cfg.Steps)
	np3 := math.Pow(float64(cfg.NParticles), 3)

	// The wire histogram is world-wide; read it before the probes add to it.
	wl := mpi.WireLatencySummary(c)

	// Rank-local working set of the short-range solvers: actives + replicas.
	act, pas := &sim.Dom.Active, &sim.Dom.Passive
	x := append(append([]float32(nil), act.X...), pas.X...)
	y := append(append([]float32(nil), act.Y...), pas.Y...)
	z := append(append([]float32(nil), act.Z...), pas.Z...)
	pool := par.NewPool(1)

	// shortrange. A PMOnly run has no kernel; fit one the way core.New does.
	kern := sim.Kernel
	if kern == nil {
		var poly [6]float64
		if root {
			fit, err := shortrange.FitGridForce(shortrange.FitOptions{GridN: cfg.FitGridN, RCut: cfg.RCut, Sigma: cfg.Sigma, Ns: cfg.NsFilter, Seed: int64(cfg.Seed)})
			must(err)
			poly = fit.Poly
		}
		copy(poly[:], mpi.Bcast(c, 0, poly[:]))
		kern = shortrange.NewKernel(poly, cfg.RCut, cfg.Eps, 1.5*cfg.Cosmo.OmegaM*sim.ParticleMass/(4*math.Pi))
	}
	{
		// 64 targets against 1728 neighbours in 9 separate spans: one fat leaf
		// against the 27-cell stencil of a chaining mesh, the kernel's shape
		// in production.
		const targets, spans, spanLen, gap, calls = 64, 9, 192, 8, 50
		rng := splitmix(1)
		coords := func(n int) (a, b, cc []float32) {
			a, b, cc = make([]float32, n), make([]float32, n), make([]float32, n)
			for i := 0; i < n; i++ {
				a[i], b[i], cc[i] = rng.float(6), rng.float(6), rng.float(6)
			}
			return
		}
		lx, ly, lz := coords(targets)
		px, py, pz := coords(spans * (spanLen + gap))
		ax, ay, az := make([]float32, targets), make([]float32, targets), make([]float32, targets)
		var ranges [][2]int32
		for s := 0; s < spans; s++ {
			lo := int32(s * (spanLen + gap))
			ranges = append(ranges, [2]int32{lo, lo + spanLen})
		}
		var pairs int64
		t := probe("shortrange.kernel", reps, func() {
			pairs = 0
			for i := 0; i < calls; i++ {
				pairs += kern.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
			}
		})
		m.set("shortrange.kernel_ns_per_interaction", t*1e9/float64(pairs))
	}
	mesh := shortrange.NewMesh(cfg.RCut)
	m.set("shortrange.mesh_force_s", probe("shortrange.mesh_force", reps, func() {
		mesh.Rebuild(x, y, z)
		mesh.ComputeForcesPoolRanges(kern.ApplyRanges, pool)
	}))
	m.set("shortrange.interactions", float64(st.counters.KernelInteractions))
	m.set("shortrange.interactions_per_particle_substep", float64(st.counters.KernelInteractions)/(np3*steps*float64(cfg.SubCycles)))
	m.set("shortrange.busy_s", st.phases["kernel"])

	// tree
	tr := tree.New(cfg.LeafSize)
	m.set("tree.rebuild_s", probe("tree.rebuild", reps, func() { tr.Rebuild(x, y, z) }))
	m.set("tree.force_s", probe("tree.force", reps, func() { tr.ComputeForcesPoolRanges(kern.ApplyRanges, cfg.RCut, pool) }))
	m.set("tree.walk_nodes", float64(st.counters.WalkNodes))
	m.set("tree.busy_s", st.phases["build"]+st.phases["walk"])
	rec.begin("probe.tree.useful_pairs")
	useful, evaluated, complete := usefulPairs(tr, cfg.RCut)
	rec.end()
	useful, evaluated = sumI(useful), sumI(evaluated)
	missed := sumI(int64(b2i(!complete)))
	m.set("tree.useful_pair_ratio", float64(useful)/float64(evaluated))
	if root {
		r.check(missed == 0, "tree walk missed neighbours inside r_cut on %d ranks", missed)
	}

	// grid, spectral, pfft: one density field and three acceleration fields
	// shaped like the simulation's own.
	n := [3]int{cfg.NGrid, cfg.NGrid, cfg.NGrid}
	ghost := int(math.Ceil(cfg.Overload)) + 2
	box := sim.Dec.Box(c.Rank())
	rho := grid.NewField(n, box, ghost)
	var acc [3]*grid.Field
	for d := range acc {
		acc[d] = grid.NewField(n, box, ghost)
	}
	ex := grid.NewExchanger(c, sim.Dec, rho)
	perParticle := 1e9 * float64(ranks) / np3
	m.set("grid.deposit_ns_per_particle", perParticle*probe("grid.deposit", reps, func() {
		grid.DepositCIC(rho, act.X, act.Y, act.Z, sim.ParticleMass)
	}))
	rho.Fill(0)
	grid.DepositCIC(rho, act.X, act.Y, act.Z, sim.ParticleMass)
	ex.Accumulate(rho)
	var poisson *spectral.Poisson
	m.set("spectral.plan_s", probe("spectral.plan", r.opt.sz.tracedRepeats, func() {
		poisson = spectral.NewPoisson(c, sim.Dec, spectral.Options{OmegaM: cfg.Cosmo.OmegaM, Sigma: cfg.Sigma, Ns: cfg.NsFilter, Filter: !cfg.DisableFilter})
	}))
	m.set("spectral.solve_s", probe("spectral.solve", reps, func() { poisson.Solve(rho, &acc) }))
	m.set("spectral.busy_s", st.phases["fft"])
	buf := make([]float32, act.Len())
	m.set("grid.interp_ns_per_particle", perParticle*probe("grid.interp", reps, func() {
		grid.InterpCIC(acc[0], act.X, act.Y, act.Z, buf, 1)
	}))
	m.set("grid.ghost_exchange_s", probe("grid.ghost_exchange", reps, func() {
		ex.Accumulate(rho)
		ex.Fill(acc[0])
	}))
	m.set("grid.cic_ops", float64(st.counters.CICOps))
	m.set("grid.busy_s", st.phases["cic"])

	pen := poisson.Pencil()
	src := make([]float64, pen.LocalX().Count())
	for i := range src {
		src[i] = float64(i%17) - 8
	}
	dst := make([]float64, len(src))
	roundtrip := func() { pen.InverseReal(pen.ForwardReal(src), dst) }
	m.set("pfft.r2c_roundtrip_s", probe("pfft.r2c_roundtrip", reps, roundtrip))
	_, tb := sent(roundtrip)
	m.set("pfft.transpose_bytes", float64(tb))

	// fft: batched 1-D transforms of rows of length NG, forward then inverse.
	plan := fft.NewPlan(cfg.NGrid)
	rows := 65536 / cfg.NGrid
	data := make([]complex128, rows*cfg.NGrid)
	for i := range data {
		data[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	m.set("fft.batch1d_ns_per_point", 1e9/float64(2*len(data))*probe("fft.batch1d", reps, func() {
		plan.ForwardBatch(data, rows)
		plan.InverseBatch(data, rows)
	}))
	m.set("fft.fft3d_count", float64(st.counters.FFT3D))

	// domain: the final positions are already canonical, so this moves no
	// particle and rebuilds the same replicas — one step's exchange.
	exchange := func() {
		sim.Dom.Migrate()
		sim.Dom.Refresh()
	}
	m.set("domain.migrate_refresh_s", probe("domain.migrate_refresh", reps, exchange))
	dm, db := sent(exchange)
	m.set("domain.msgs_per_step", float64(dm))
	m.set("domain.bytes_per_step", float64(db))
	m.set("domain.overload_ratio", float64(sumI(int64(pas.Len())))/float64(sumI(int64(act.Len()))))

	// mpi, on the workload's transport.
	rec.begin("probe.mpi.pingpong")
	small := make([]byte, 1024)
	var rtt []float64
	for i := 0; i < 100*reps; i++ {
		if root {
			t0 := time.Now()
			mpi.Send(c, 1, tagPing, small)
			mpi.Recv[byte](c, 1, tagPing)
			rtt = append(rtt, float64(time.Since(t0))/2e3) // one way, µs
		} else {
			mpi.Send(c, 0, tagPing, mpi.Recv[byte](c, 0, tagPing))
		}
	}
	rec.end()
	m.set("mpi.pingpong_p50_us", median(rtt))
	m.set("mpi.pingpong_p99_us", percentile(rtt, 0.99))
	bulk := make([]byte, 4<<20)
	m.set("mpi.bandwidth_mbps", float64(len(bulk))/1e6/probe("mpi.bandwidth", reps, func() {
		if root {
			mpi.Send(c, 1, tagBulk, bulk)
			mpi.Recv[byte](c, 1, tagAck)
		} else {
			mpi.Recv[byte](c, 0, tagBulk)
			mpi.Send(c, 0, tagAck, small[:1])
		}
	}))
	rec.begin("probe.mpi.allreduce")
	var ar []float64
	one := []float64{1}
	for i := 0; i < 100*reps; i++ {
		t0 := time.Now()
		mpi.AllReduce(c, one, mpi.SumF64)
		ar = append(ar, float64(time.Since(t0))/1e3)
	}
	rec.end()
	m.set("mpi.allreduce_p50_us", median(ar))
	m.set("mpi.msgs", float64(st.counters.MsgsSent))
	m.set("mpi.bytes", float64(st.counters.BytesSent))
	m.set("mpi.wire_msgs", float64(st.counters.WireMsgs))
	m.set("mpi.wire_bytes", float64(st.counters.WireBytes))
	m.set("mpi.wire_latency_p50_us", float64(wl.P50Ns)/1e3)
	m.set("mpi.wire_latency_p99_us", float64(wl.P99Ns)/1e3)
	m.set("mpi.post_s", st.phases[machine.CommPost])
	m.set("mpi.wait_s", st.phases[machine.CommWait])

	// analysis
	var halos []analysis.Halo
	m.set("analysis.fof_s", probe("analysis.fof", reps, func() { halos = sim.FindHalos(cfg.FOFLinking, cfg.MinHaloSize) }))
	m.set("analysis.power_s", probe("analysis.power", reps, func() { sim.PowerSpectrum(cfg.AnalysisBins, true) }))
	m.set("analysis.halos", float64(sumI(int64(len(halos)))))
	m.set("analysis.busy_s", st.phases["analysis"])

	// gio: one collective container of the active particles.
	wr := gio.NewWriter(c)
	vars := snapshot.AppendParticleVars(nil, act)
	cont := filepath.Join(dir, "particles.gio")
	tw := probe("gio.write", reps, func() { must(wr.Write(cont, nil, vars)) })
	fi, err := os.Stat(cont)
	must(err)
	mb := float64(fi.Size()) / 1e6
	m.set("gio.write_mbps", mb/tw)
	m.set("gio.read_mbps", mb/probe("gio.read", reps, func() {
		rd, err := gio.Open(cont)
		must(err)
		defer rd.Close()
		for _, v := range rd.Vars() {
			if v.Type == gio.Uint64 {
				_, err = gio.ReadColumn[uint64](rd, c.Rank(), v.Name, nil)
			} else {
				_, err = gio.ReadColumn[float32](rd, c.Rank(), v.Name, nil)
			}
			must(err)
		}
	}))
	m.set("gio.verify_mbps", mb/probe("gio.verify", reps, func() {
		if root {
			rd, err := gio.Open(cont)
			must(err)
			defer rd.Close()
			must(rd.Verify())
		}
	}))
	m.set("gio.bytes_per_checkpoint", float64(prod.ckptBytes))
	m.set("gio.busy_s", st.phases["checkpoint"])

	// snapshot: per-rank products, as haccsim writes them.
	hdr := snapshot.Header{NGrid: uint32(cfg.NGrid), BoxMpc: cfg.BoxMpc, A: sim.A, OmegaM: cfg.Cosmo.OmegaM, Seed: cfg.Seed}
	cat := filepath.Join(dir, fmt.Sprintf("halos.r%d.bin", c.Rank()))
	m.set("snapshot.halos_roundtrip_s", probe("snapshot.halos_roundtrip", reps, func() {
		must(snapshot.SaveHalos(cat, hdr, halos))
		_, _, err := snapshot.LoadHalos(cat)
		must(err)
	}))
	snap := filepath.Join(dir, fmt.Sprintf("snap.r%d.hacc", c.Rank()))
	ts := probe("snapshot.particles_save", reps, func() { must(sim.SaveSnapshot(snap)) })
	fi, err = os.Stat(snap)
	must(err)
	m.set("snapshot.particles_save_mbps", float64(sumI(fi.Size()))/1e6/ts)

	// ic: regenerate the initial conditions into a fresh domain.
	m.set("ic.generate_s", probe("ic.generate", r.opt.sz.tracedRepeats, func() {
		dom := domain.New(c, sim.Dec, cfg.Overload)
		if cfg.ICKind == "halo" {
			must(ic.GenerateClustered(c, sim.Dec, ic.ClusteredOptions{Np: cfg.NParticles, Seed: cfg.Seed}, dom))
		} else {
			must(ic.Generate(c, sim.Dec, sim.LP, ic.Options{Np: cfg.NParticles, BoxMpc: cfg.BoxMpc, AInit: 1 / (1 + cfg.ZInit), Seed: cfg.Seed, Fixed: cfg.FixedAmp}, dom))
		}
	}))

	// balance, core
	m.set("balance.imbalance", sim.Imbalance())
	m.set("balance.rebalances", float64(st.counters.Rebalances))
	m.set("balance.busy_s", st.phases["rebalance"])
	m.set("core.stream_s", st.phases["stream"])
	m.set("core.mallocs_per_step", float64(st.mallocs)/steps)
	m.set("core.gc_pause_ms", float64(st.gcPause)/1e6)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// usefulPairs walks the built tree once with a counting kernel in place of
// the force kernel. For 256 evenly spaced targets it compares the pairs the
// walk hands the kernel with the pairs that lie inside r_cut, found by brute
// force over every particle of the tree. complete is false when the walk's
// spans miss a pair the brute force finds.
func usefulPairs(tr *tree.Tree, rcut float64) (useful, evaluated int64, complete bool) {
	rc2 := float32(rcut * rcut)
	stride := len(tr.X)/256 + 1
	seen := 0
	complete = true
	within := func(tx, ty, tz float32, px, py, pz []float32) (n int64) {
		for j := range px {
			dx, dy, dz := px[j]-tx, py[j]-ty, pz[j]-tz
			if dx*dx+dy*dy+dz*dz < rc2 {
				n++
			}
		}
		return
	}
	// threads = 1 runs the walk on this goroutine, leaf by leaf.
	tr.ComputeForcesRanges(func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
		var listed int64
		for _, rg := range ranges {
			listed += int64(rg[1] - rg[0])
		}
		for i := range lx {
			if seen++; seen%stride != 0 {
				continue
			}
			var inSpans int64
			for _, rg := range ranges {
				inSpans += within(lx[i], ly[i], lz[i], px[rg[0]:rg[1]], py[rg[0]:rg[1]], pz[rg[0]:rg[1]])
			}
			if inSpans != within(lx[i], ly[i], lz[i], px, py, pz) {
				complete = false
			}
			useful += inSpans
			evaluated += listed
		}
		return 0
	}, rcut, 1)
	return
}
