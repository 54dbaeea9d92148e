package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hacc/internal/analysis"
	"hacc/internal/domain"
	"hacc/internal/mpi"
)

// pcopy is a bit-exact copy of one rank's particle store.
type pcopy struct {
	X, Y, Z, Vx, Vy, Vz []float32
	ID                  []uint64
}

func capture(p *domain.Particles) pcopy {
	return pcopy{
		X: append([]float32(nil), p.X...), Y: append([]float32(nil), p.Y...),
		Z:  append([]float32(nil), p.Z...),
		Vx: append([]float32(nil), p.Vx...), Vy: append([]float32(nil), p.Vy...),
		Vz: append([]float32(nil), p.Vz...),
		ID: append([]uint64(nil), p.ID...),
	}
}

// equalBits reports bitwise equality of two particle copies, including
// storage order.
func equalBits(a, b pcopy) bool {
	if len(a.ID) != len(b.ID) {
		return false
	}
	for i := range a.ID {
		if a.ID[i] != b.ID[i] ||
			math.Float32bits(a.X[i]) != math.Float32bits(b.X[i]) ||
			math.Float32bits(a.Y[i]) != math.Float32bits(b.Y[i]) ||
			math.Float32bits(a.Z[i]) != math.Float32bits(b.Z[i]) ||
			math.Float32bits(a.Vx[i]) != math.Float32bits(b.Vx[i]) ||
			math.Float32bits(a.Vy[i]) != math.Float32bits(b.Vy[i]) ||
			math.Float32bits(a.Vz[i]) != math.Float32bits(b.Vz[i]) {
			return false
		}
	}
	return true
}

// gatherSorted concentrates the global active particle state on rank 0 as
// ID-sorted records of 7 uint64 words (id, then the six float32 bit
// patterns) — the rank-count-independent view of the particle state.
func gatherSorted(c *mpi.Comm, p *domain.Particles) []uint64 {
	recs := make([]uint64, 0, 7*p.Len())
	for i := 0; i < p.Len(); i++ {
		recs = append(recs,
			p.ID[i],
			uint64(math.Float32bits(p.X[i])), uint64(math.Float32bits(p.Y[i])),
			uint64(math.Float32bits(p.Z[i])),
			uint64(math.Float32bits(p.Vx[i])), uint64(math.Float32bits(p.Vy[i])),
			uint64(math.Float32bits(p.Vz[i])))
	}
	all := mpi.Gather(c, 0, recs)
	if c.Rank() != 0 {
		return nil
	}
	n := len(all) / 7
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return all[7*idx[i]] < all[7*idx[j]] })
	out := make([]uint64, 0, len(all))
	for _, k := range idx {
		out = append(out, all[7*k:7*k+7]...)
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func specCopy(ps *analysis.PowerSpectrum) *analysis.PowerSpectrum {
	return &analysis.PowerSpectrum{
		K: append([]float64(nil), ps.K...), P: append([]float64(nil), ps.P...),
		NModes:    append([]int64(nil), ps.NModes...),
		ShotNoise: ps.ShotNoise,
	}
}

// TestRestartMatchesUninterrupted is the subsystem's acceptance test: a run
// checkpointed at step 2 of 4 and restored continues to a final state that
// is bitwise identical to the uninterrupted run — per-rank particle storage
// and final P(k) — at the writing rank count, with or without the replica
// container (corrupted or deleted, forcing the refresh fallback). Restoring
// at a different rank count reassigns the records losslessly (the global
// ID-sorted bit state at the restore point is identical), and the continued
// run reproduces the reference P(k) to the accuracy set by float32
// summation-order differences across decompositions — cross-rank-count
// continuation cannot be bitwise because deposit and force sums follow the
// domain partition.
func TestRestartMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 4
	const bins = 8
	cfg := Config{
		NGrid: 16, NParticles: 16, BoxMpc: 120,
		ZInit: 20, ZFinal: 1, Steps: 4, SubCycles: 2,
		Seed: 11, Solver: PPTreePM,
	}
	ckroot := t.TempDir()

	// Uninterrupted reference run.
	finalRef := make([]pcopy, ranks)
	var refPk *analysis.PowerSpectrum
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		finalRef[c.Rank()] = capture(&s.Dom.Active)
		ps := s.PowerSpectrum(bins, true)
		if c.Rank() == 0 {
			refPk = specCopy(ps)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cadenced checkpoints every 2 steps, "killed" after
	// step 2 (the Simulation is simply abandoned).
	ckCfg := cfg
	ckCfg.CheckpointEvery = 2
	ckCfg.CheckpointDir = ckroot
	var ckGlobal []uint64
	err = mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, ckCfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		if g := gatherSorted(c, &s.Dom.Active); c.Rank() == 0 {
			ckGlobal = g
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stepDir := filepath.Join(ckroot, "step000002")

	// continueRun restores at p ranks and finishes the schedule, returning
	// per-rank final states, the final P(k), and the global sorted state at
	// the restore point.
	continueRun := func(p int) ([]pcopy, *analysis.PowerSpectrum, []uint64) {
		final := make([]pcopy, p)
		var pk *analysis.PowerSpectrum
		var restored []uint64
		err := mpi.Run(p, func(c *mpi.Comm) {
			s, err := Restore(c, stepDir, nil)
			if err != nil {
				panic(err)
			}
			if s.StepIndex != 2 || s.Z() >= cfg.ZInit {
				panic(fmt.Sprintf("restored at step %d a=%v", s.StepIndex, s.A))
			}
			if g := gatherSorted(c, &s.Dom.Active); c.Rank() == 0 {
				restored = g
			}
			if err := s.Run(nil); err != nil {
				panic(err)
			}
			final[c.Rank()] = capture(&s.Dom.Active)
			ps := s.PowerSpectrum(bins, true)
			if c.Rank() == 0 {
				pk = specCopy(ps)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return final, pk, restored
	}

	// Same rank count: everything must be bitwise identical.
	sameFinal, samePk, sameRestored := continueRun(ranks)
	if !equalU64(sameRestored, ckGlobal) {
		t.Error("restored global state differs from the checkpointed state")
	}
	for r := 0; r < ranks; r++ {
		if !equalBits(finalRef[r], sameFinal[r]) {
			t.Errorf("rank %d: restarted final particle state differs bitwise from the uninterrupted run", r)
		}
	}
	for i := range refPk.P {
		if math.Float64bits(samePk.P[i]) != math.Float64bits(refPk.P[i]) ||
			samePk.NModes[i] != refPk.NModes[i] {
			t.Fatalf("restarted P(k) bin %d = %v differs bitwise from uninterrupted %v", i, samePk.P[i], refPk.P[i])
		}
	}

	// Different rank counts (fewer and more readers than writers): the
	// restore itself is lossless — identical global bit state — and the
	// continued P(k) reproduces the reference to summation-order accuracy.
	for _, p := range []int{2, 8} {
		final, pk, restored := continueRun(p)
		if !equalU64(restored, ckGlobal) {
			t.Errorf("%d-rank restore: global state differs from the checkpointed state", p)
		}
		var n int
		for r := range final {
			n += len(final[r].ID)
		}
		if want := cfg.NParticles * cfg.NParticles * cfg.NParticles; n != want {
			t.Errorf("%d-rank restart finished with %d particles, want %d", p, n, want)
		}
		for i := range refPk.P {
			if refPk.P[i] == 0 {
				continue
			}
			if rel := math.Abs(pk.P[i]-refPk.P[i]) / math.Abs(refPk.P[i]); rel > 1e-3 {
				t.Errorf("%d-rank restart P(k) bin %d: relative difference %g vs uninterrupted", p, i, rel)
			}
			if pk.NModes[i] != refPk.NModes[i] {
				t.Errorf("%d-rank restart P(k) bin %d: %d modes vs %d", p, i, pk.NModes[i], refPk.NModes[i])
			}
		}
	}

	// Replica container corrupted, then deleted: restore falls back to an
	// ordinary refresh, which rebuilds bitwise-identical replicas — the
	// continuation must not change.
	repl := filepath.Join(stepDir, ReplicaFile)
	raw, err := os.ReadFile(repl)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x10 // inside the last block's payload or CRC
	if err := os.WriteFile(repl, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptFinal, _, _ := continueRun(ranks)
	for r := 0; r < ranks; r++ {
		if !equalBits(finalRef[r], corruptFinal[r]) {
			t.Errorf("rank %d: restart with corrupt replica container diverged", r)
		}
	}
	if err := os.Remove(repl); err != nil {
		t.Fatal(err)
	}
	noReplFinal, noReplPk, _ := continueRun(ranks)
	for r := 0; r < ranks; r++ {
		if !equalBits(finalRef[r], noReplFinal[r]) {
			t.Errorf("rank %d: restart without replica container diverged", r)
		}
	}
	for i := range refPk.P {
		if math.Float64bits(noReplPk.P[i]) != math.Float64bits(refPk.P[i]) {
			t.Fatalf("no-replica restart P(k) differs bitwise in bin %d", i)
		}
	}
}

// TestCheckpointCadenceAndLatest pins the CheckpointEvery/CheckpointDir
// hook (step%06d directories at exactly the configured cadence) and
// LatestCheckpoint's skip-corrupt behavior.
func TestCheckpointCadenceAndLatest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	root := t.TempDir()
	cfg := Config{
		NGrid: 16, NParticles: 16, BoxMpc: 100,
		ZInit: 20, ZFinal: 2, Steps: 5, SubCycles: 1,
		Seed: 3, Solver: PMOnly,
		CheckpointEvery: 2, CheckpointDir: root,
	}
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{2, 4} {
		dir := filepath.Join(root, fmt.Sprintf("step%06d", step))
		info, err := ReadCheckpointInfo(dir)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if info.StepIndex != step || info.NRanks != 2 || info.NGlobal != 16*16*16 {
			t.Fatalf("step %d info: %+v", step, info)
		}
		if info.Cfg.Seed != cfg.Seed || info.Cfg.NGrid != cfg.NGrid {
			t.Fatalf("step %d: config not preserved: %+v", step, info.Cfg)
		}
	}
	for _, step := range []int{1, 3, 5} {
		if _, err := os.Stat(filepath.Join(root, fmt.Sprintf("step%06d", step))); err == nil {
			t.Errorf("checkpoint written at off-cadence step %d", step)
		}
	}
	latest, err := LatestCheckpoint(root)
	if err != nil || filepath.Base(latest) != "step000004" {
		t.Fatalf("LatestCheckpoint = %q, %v", latest, err)
	}
	// A step directory resolves to itself; the root resolves to the latest.
	if dir, err := ResolveCheckpoint(latest); err != nil || dir != latest {
		t.Errorf("ResolveCheckpoint(step dir) = %q, %v", dir, err)
	}
	if dir, err := ResolveCheckpoint(root); err != nil || dir != latest {
		t.Errorf("ResolveCheckpoint(root) = %q, %v", dir, err)
	}
	// Corrupt one data byte of the newest state container (index stays
	// intact — the crash-after-rename shape): the restorable-checkpoint
	// probe verifies block CRCs too and must fall back to the previous
	// checkpoint.
	state := filepath.Join(latest, StateFile)
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x20
	if err := os.WriteFile(state, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	latest2, err := LatestCheckpoint(root)
	if err != nil || filepath.Base(latest2) != "step000002" {
		t.Fatalf("LatestCheckpoint after data corruption = %q, %v", latest2, err)
	}
	// Truncate it instead (index check): same fallback.
	if err := os.WriteFile(state, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	latest2, err = LatestCheckpoint(root)
	if err != nil || filepath.Base(latest2) != "step000002" {
		t.Fatalf("LatestCheckpoint after truncation = %q, %v", latest2, err)
	}
	// No checkpoints at all → descriptive error.
	if _, err := LatestCheckpoint(t.TempDir()); err == nil {
		t.Error("LatestCheckpoint accepted an empty directory")
	}
}

// TestRestoreValidation pins the loud-failure paths of Restore: missing or
// corrupt checkpoints, non-checkpoint containers, and physics-changing
// restart configs are all rejected with descriptive errors (no panics).
func TestRestoreValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	root := t.TempDir()
	cfg := Config{
		NGrid: 16, NParticles: 16, BoxMpc: 100,
		ZInit: 20, ZFinal: 2, Steps: 2, SubCycles: 1,
		Seed: 5, Solver: PMOnly,
		CheckpointEvery: 2, CheckpointDir: root,
	}
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stepDir := filepath.Join(root, "step000002")

	// restoreErr runs Restore on a 2-rank world and returns every rank's
	// error: failures are collective (mpi.AllOK-agreed), so all ranks must
	// error, but the descriptive message lands on the rank that observed
	// the fault (the others report a generic collective failure).
	restoreErr := func(dir string, mutate func(*Config)) []error {
		got := make([]error, 2)
		err := mpi.Run(2, func(c *mpi.Comm) {
			_, e := Restore(c, dir, mutate)
			got[c.Rank()] = e
			if e == nil {
				panic("restore unexpectedly succeeded")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	expect := func(errs []error, want string) {
		t.Helper()
		found := false
		for _, err := range errs {
			if err == nil {
				t.Errorf("a rank restored successfully, want a collective error mentioning %q", want)
				return
			}
			if strings.Contains(err.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no rank's error (%v) mentions %q", errs, want)
		}
	}

	expect(restoreErr(filepath.Join(root, "nope"), nil), "not a restorable checkpoint")
	expect(restoreErr(stepDir, func(c *Config) { c.Seed = 999 }), "physics")
	expect(restoreErr(stepDir, func(c *Config) { c.NGrid = 32; c.NParticles = 32 }), "physics")

	// Neutral knobs may change freely.
	err = mpi.Run(2, func(c *mpi.Comm) {
		s, err := Restore(c, stepDir, func(c *Config) {
			c.Threads = 1
			c.CheckpointEvery = 0
			c.CheckpointDir = ""
		})
		if err != nil {
			panic(err)
		}
		if s.StepIndex != 2 {
			panic("wrong step")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt particle payload: the block CRC must catch it.
	state := filepath.Join(stepDir, StateFile)
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x04
	if err := os.WriteFile(state, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	expect(restoreErr(stepDir, nil), "CRC")
	if err := os.WriteFile(state, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A particle snapshot is a valid container but not a checkpoint.
	snapDir := t.TempDir()
	err = mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, Config{
			NGrid: 16, NParticles: 16, BoxMpc: 100,
			ZInit: 20, ZFinal: 2, Steps: 1, Solver: PMOnly, Seed: 5,
		})
		if err != nil {
			panic(err)
		}
		if err := s.SaveSnapshot(filepath.Join(snapDir, StateFile)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(restoreErr(snapDir, nil), "not a checkpoint state")
}

// TestCheckpointWarmAllocs pins the hot-path allocation contract: once the
// persistent writer and its scratch are warm, a checkpoint's data path
// allocates only O(1) bookkeeping (file descriptors, the collective index
// exchange, path strings) — nothing proportional to the particle count.
func TestCheckpointWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	dir := t.TempDir()
	err := mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, Config{
			NGrid: 24, NParticles: 24, BoxMpc: 100,
			ZInit: 20, ZFinal: 2, Steps: 1, Solver: PMOnly, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		target := filepath.Join(dir, "warm")
		for i := 0; i < 3; i++ { // warm the writer, scratch, and meta buffers
			if err := s.Checkpoint(target); err != nil {
				panic(err)
			}
		}
		const iters = 10
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			if err := s.Checkpoint(target); err != nil {
				panic(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / iters
		bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / iters
		// 24³ particles ≈ 400 KB of column data per container; the warm
		// write path must not allocate anything of that order. The bound is
		// generous headroom over the measured O(1) bookkeeping.
		if perOp > 300 {
			t.Errorf("warm Checkpoint allocates %.0f objects/op, want O(1) bookkeeping only", perOp)
		}
		if bytesPerOp > 64<<10 {
			t.Errorf("warm Checkpoint allocates %.0f bytes/op, comparable to the particle data itself", bytesPerOp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
