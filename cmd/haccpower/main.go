// Command haccpower analyzes particle snapshots written by haccsim — or a
// checkpoint's state container directly — with the distributed in-situ
// pipeline: particle records are scattered over a simulated MPI world,
// redistributed to their owner ranks, and measured with the planned
// pencil-r2c P(k) estimator, the distributed FOF halo finder, and the
// two-point correlation function — the §V statistics pipeline, decoupled
// from the simulation run.
//
// Usage:
//
//	haccpower -snap run.hacc [-ranks 8] [-par 4] [-bins 16] [-fof 0.2]
//	haccpower -ckpt ckpt/step000008 [-par 4]
//
// The -snap form reads run.hacc, run.hacc.1, …, run.hacc.(ranks-1); the
// -ckpt form reads every writer rank's block straight out of one
// checkpoint state container (an O(1) seek per block).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"hacc/internal/analysis"
	"hacc/internal/core"
	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/snapshot"
	"hacc/internal/spectral"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("haccpower: ")
	var (
		snapPath = flag.String("snap", "", "snapshot base path")
		ckptPath = flag.String("ckpt", "", "checkpoint step directory (or checkpoint root) to analyze instead of snapshots")
		ranks    = flag.Int("ranks", 1, "number of per-rank snapshot files")
		par      = flag.Int("par", 4, "simulated MPI ranks for the distributed analysis")
		bins     = flag.Int("bins", 16, "power spectrum bins")
		fofB     = flag.Float64("fof", 0.2, "FOF linking length (fraction of mean spacing); 0 disables")
		minN     = flag.Int("minhalo", 10, "minimum FOF halo membership")
		shot     = flag.Bool("shot", true, "subtract Poisson shot noise from P(k)")
	)
	flag.Parse()
	if (*snapPath == "") == (*ckptPath == "") {
		log.Print("exactly one of -snap or -ckpt is required")
		flag.Usage()
		os.Exit(2)
	}
	if *par < 1 || *bins < 1 || *minN < 1 || *fofB < 0 || *ranks < 1 {
		log.Fatalf("senseless flags: -ranks %d -par %d -bins %d -minhalo %d -fof %g", *ranks, *par, *bins, *minN, *fofB)
	}
	if *ckptPath != "" {
		// -ranks counts snapshot files; a checkpoint's writer-rank count
		// comes from its own rank table, so an explicit -ranks would be
		// silently ignored — reject it instead.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ranks" {
				log.Fatalf("-ranks only applies to -snap inputs; -ckpt reads the writer-rank count from the container")
			}
		})
	}

	var (
		header snapshot.Header
		np0    int64
		paths  []string
		ckDir  string
	)
	if *ckptPath != "" {
		dir, err := core.ResolveCheckpoint(*ckptPath)
		if err != nil {
			log.Fatalf("-ckpt %s: %v", *ckptPath, err)
		}
		info, err := core.ReadCheckpointInfo(dir)
		if err != nil {
			log.Fatalf("-ckpt %s: %v", *ckptPath, err)
		}
		ckDir = dir
		header = snapshot.Header{
			NGrid:  uint32(info.Cfg.NGrid),
			BoxMpc: info.Cfg.BoxMpc,
			A:      info.A,
			OmegaM: info.Cfg.Cosmo.OmegaM,
			Seed:   info.Cfg.Seed,
		}
		np0 = info.NGlobal
		log.Printf("checkpoint %s: step %d, %d writer ranks", dir, info.StepIndex, info.NRanks)
	} else {
		// Headers are read up front (cheap) to size the world consistently.
		paths = make([]string, *ranks)
		for r := range paths {
			paths[r] = *snapPath
			if r > 0 {
				paths[r] = fmt.Sprintf("%s.%d", *snapPath, r)
			}
		}
		var err error
		header, np0, err = scanHeaders(paths)
		if err != nil {
			log.Fatal(err)
		}
	}
	ng := int(header.NGrid)
	log.Printf("%d particles, grid %d³, box %.0f Mpc/h, a=%.4f (z=%.2f), analyzing on %d ranks",
		np0, ng, header.BoxMpc, header.A, 1/header.A-1, *par)

	err := mpi.Run(*par, func(c *mpi.Comm) {
		dec := grid.NewDecomp([3]int{ng, ng, ng}, *par)
		dom := domain.New(c, dec, 3)
		// Each rank loads its share of the inputs (snapshot files, or writer
		// blocks of the checkpoint container); the dense migration then
		// routes every particle to its owner (arbitrary motion, so the
		// 26-stencil planned path does not apply here).
		if ckDir != "" {
			gr, _, err := core.OpenCheckpoint(ckDir)
			if err != nil {
				log.Fatal(err)
			}
			defer gr.Close()
			for fi := c.Rank(); fi < gr.NumRanks(); fi += c.Size() {
				if err := snapshot.ReadParticleRank(gr, fi, &dom.Active); err != nil {
					log.Fatalf("reading %s block %d: %v", ckDir, fi, err)
				}
			}
		} else {
			for fi := c.Rank(); fi < len(paths); fi += c.Size() {
				_, p, err := snapshot.LoadFile(paths[fi])
				if err != nil {
					log.Fatalf("reading %s: %v", paths[fi], err)
				}
				for i := 0; i < p.Len(); i++ {
					dom.Active.AppendFrom(p, i)
				}
			}
		}
		dom.MigrateDense()
		dom.Refresh()

		pw := analysis.NewPower(spectral.NewPoisson(c, dec, spectral.Options{}), nil, header.BoxMpc, *bins)
		ps := pw.Measure(dom, *shot)
		if c.Rank() == 0 {
			fmt.Printf("\npower spectrum (pencil-r2c, %d ranks):\n%-12s %-14s %s\n", *par, "k [h/Mpc]", "P(k)", "modes")
			for i, k := range ps.K {
				fmt.Printf("%-12.4f %-14.4e %d\n", k, ps.P[i], ps.NModes[i])
			}
			fmt.Printf("(shot noise level: %.3e)\n", ps.ShotNoise)

			radii := []float64{2, 5, 10, 20, 40, 80, 105, 130}
			var usable []float64
			for _, r := range radii {
				if r < header.BoxMpc/3 {
					usable = append(usable, r)
				}
			}
			xi := analysis.CorrelationFromPower(ps, usable)
			fmt.Printf("\ncorrelation function:\n%-12s %s\n", "r [Mpc/h]", "ξ(r)")
			for i, r := range usable {
				fmt.Printf("%-12.1f %.4e\n", r, xi[i])
			}
		}

		if *fofB <= 0 {
			return
		}
		params := cosmology.Default()
		if header.OmegaM > 0 {
			params.OmegaM = header.OmegaM
			params.OmegaL = 1 - header.OmegaM
		}
		nGlobal := dom.NGlobal()
		npDim := cbrtInt(int(nGlobal))
		mp := params.ParticleMass(npDim, header.BoxMpc)
		spacing := float64(ng) / float64(npDim)
		pl := analysis.NewPlan(dom, nil)
		halos := pl.FindHalos(*fofB*spacing, *minN, mp)

		// Concentrate the catalog for reporting (N, Mass, X, Y, Z per halo).
		var flat []float64
		for _, h := range halos {
			flat = append(flat, float64(h.N), h.Mass, h.X, h.Y, h.Z)
		}
		all := mpi.Gather(c, 0, flat)
		if c.Rank() != 0 {
			return
		}
		type rec struct {
			n             int
			mass, x, y, z float64
		}
		var cat []rec
		for k := 0; k+5 <= len(all); k += 5 {
			cat = append(cat, rec{int(all[k]), all[k+1], all[k+2], all[k+3], all[k+4]})
		}
		sort.Slice(cat, func(i, j int) bool { return cat[i].n > cat[j].n })
		fmt.Printf("\nFOF halos (distributed, b=%.2f, ≥%d particles): %d\n", *fofB, *minN, len(cat))
		for i, h := range cat {
			if i >= 5 {
				fmt.Printf("  … %d more\n", len(cat)-5)
				break
			}
			fmt.Printf("  halo %d: %d particles, M=%.2e Msun/h, center (%.1f,%.1f,%.1f)\n",
				i, h.n, h.mass, h.x, h.y, h.z)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

// scanHeaders validates the per-rank snapshot headers (header-only reads —
// particle payloads are decoded once, inside the analysis world) and
// returns the first header plus the total particle count.
func scanHeaders(paths []string) (snapshot.Header, int64, error) {
	var header snapshot.Header
	var total int64
	for r, path := range paths {
		h, err := snapshot.LoadHeader(path)
		if err != nil {
			return header, 0, fmt.Errorf("reading %s: %w", path, err)
		}
		if r == 0 {
			header = h
		} else if h.NGrid != header.NGrid || h.BoxMpc != header.BoxMpc {
			return header, 0, fmt.Errorf("%s: inconsistent header (grid %d box %g)", path, h.NGrid, h.BoxMpc)
		}
		total += int64(h.NP)
	}
	return header, total, nil
}

// cbrtInt returns the integer cube root of n (assuming n is a perfect cube
// or near one).
func cbrtInt(n int) int {
	r := 1
	for r*r*r < n {
		r++
	}
	if r*r*r > n && (r-1)*(r-1)*(r-1) >= n-3*r*r {
		r--
	}
	return r
}
