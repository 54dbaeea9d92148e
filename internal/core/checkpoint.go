package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hacc/internal/domain"
	"hacc/internal/gio"
	"hacc/internal/grid"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/snapshot"
)

// Checkpoint file names inside one step directory. The state container is
// sufficient to restore (replicas are rebuilt by a refresh when absent or
// stale); the replica container is the fast path that restores the passive
// store and its origin segments without any communication.
const (
	StateFile   = "state.gio"
	ReplicaFile = "replica.gio"
)

// ckptFormatVersion versions the checkpoint meta blob independently of the
// container layout underneath it. The value is a tag ("HCP2"), not a small
// integer, so a snapshot-product container handed to Restore by mistake is
// identified as such instead of being misparsed. HCP2 extends HCP1's bare
// config trailer to a trailer struct that also records the decomposition
// cut arrays, so rebalanced (non-uniform) geometries survive a restart.
const ckptFormatVersion = 0x48435032

// ckptCounterWords is the per-rank counter block stored in the state
// container: the machine counters plus the domain's migration count.
const ckptCounterWords = machine.CounterWords + 1

// ckptMetaSize is the fixed front of the meta blob; the state container
// appends the config JSON after it.
const ckptMetaSize = 48

// ckptMeta is the decoded fixed part of a checkpoint meta blob. Every
// field is identical on all ranks at checkpoint time (per-rank quantities
// live in the per-rank counter blocks instead).
type ckptMeta struct {
	NRanks       int
	StepIndex    int
	SubstepsDone int64
	A            float64
	CfgFP        uint64
	NGlobal      int64
}

// ckptTrailer is the JSON payload after the fixed meta words in the state
// container: the full config plus the decomposition cut arrays, so a restart
// needs no flags beyond the checkpoint path and resumes under the exact
// geometry the checkpoint was taken in (a rebalanced run is mid-flight in a
// non-uniform decomposition).
type ckptTrailer struct {
	Cfg  Config
	Cuts [3][]int
}

// ckptState is the persistent checkpoint machinery of one rank: the
// collective container writer with its scratch, the trailer JSON (config +
// geometry, rebuilt only when a rebalance changes the decomposition) and
// fingerprint, and reusable buffers for meta blobs, column declarations,
// and counter/origin tables — so a warm Checkpoint allocates nothing beyond
// file descriptors and the writer's collective index exchange.
type ckptState struct {
	w       *gio.Writer
	dec     *grid.Decomp // geometry the cached trailer was built for
	trailer []byte
	fp      uint64
	meta    []byte
	vars    []gio.Var
	words   [ckptCounterWords]int64
	orank   []int64
	on      []int64
}

// ensureCkpt builds the persistent checkpoint state on first use and
// refreshes the cached trailer whenever the decomposition has changed.
func (s *Simulation) ensureCkpt() *ckptState {
	if s.ckpt == nil {
		s.ckpt = &ckptState{w: gio.NewWriter(s.Comm), fp: s.Cfg.Fingerprint()}
	}
	ck := s.ckpt
	if ck.dec != s.Dec {
		js, err := json.Marshal(ckptTrailer{Cfg: s.Cfg, Cuts: s.Dec.Cuts()})
		if err != nil {
			// Config and cuts are plain scalars and slices; a marshal
			// failure is a programming error, not a runtime condition.
			panic(fmt.Sprintf("core: checkpoint trailer marshal: %v", err))
		}
		ck.trailer, ck.dec = js, s.Dec
	}
	return ck
}

// encodeMeta assembles the checkpoint meta blob into the persistent buffer:
// the fixed run-state words, plus (for the state container) the full config
// JSON so a restart needs no flags beyond the checkpoint path.
func (ck *ckptState) encodeMeta(s *Simulation, nGlobal int64, withCfg bool) []byte {
	var w [ckptMetaSize]byte
	binary.LittleEndian.PutUint32(w[0:], ckptFormatVersion)
	binary.LittleEndian.PutUint32(w[4:], uint32(s.Comm.Size()))
	binary.LittleEndian.PutUint64(w[8:], uint64(int64(s.StepIndex)))
	binary.LittleEndian.PutUint64(w[16:], uint64(s.SubstepsDone))
	binary.LittleEndian.PutUint64(w[24:], math.Float64bits(s.A))
	binary.LittleEndian.PutUint64(w[32:], ck.fp)
	binary.LittleEndian.PutUint64(w[40:], uint64(nGlobal))
	ck.meta = append(ck.meta[:0], w[:]...)
	if withCfg {
		ck.meta = append(ck.meta, ck.trailer...)
	}
	return ck.meta
}

// decodeCkptMeta splits and validates a checkpoint meta blob, returning the
// fixed state and the trailing trailer JSON (empty for replica containers).
func decodeCkptMeta(meta []byte) (ckptMeta, []byte, error) {
	var m ckptMeta
	if len(meta) < ckptMetaSize {
		return m, nil, fmt.Errorf("core: container meta blob is %d bytes, not a checkpoint state", len(meta))
	}
	if v := binary.LittleEndian.Uint32(meta[0:]); v != ckptFormatVersion {
		if v < 16 {
			// Snapshot products tag their meta blobs with small kind codes.
			return m, nil, fmt.Errorf("core: container is not a checkpoint state (holds snapshot product kind %d)", v)
		}
		return m, nil, fmt.Errorf("core: unsupported checkpoint format version %#x (this build reads %#x)", v, uint32(ckptFormatVersion))
	}
	m.NRanks = int(binary.LittleEndian.Uint32(meta[4:]))
	m.StepIndex = int(int64(binary.LittleEndian.Uint64(meta[8:])))
	m.SubstepsDone = int64(binary.LittleEndian.Uint64(meta[16:]))
	m.A = math.Float64frombits(binary.LittleEndian.Uint64(meta[24:]))
	m.CfgFP = binary.LittleEndian.Uint64(meta[32:])
	m.NGlobal = int64(binary.LittleEndian.Uint64(meta[40:]))
	return m, meta[ckptMetaSize:], nil
}

// Checkpoint writes a restart-exact checkpoint of the complete run state
// into dir: the state container (active particles in storage order, the
// per-rank counter block, and a meta blob holding the schedule position,
// scale factor, RNG seed and full config, and the config fingerprint) and
// the replica container (passive particles plus their origin segments).
//
// The state write reads only the active store, so when an end-of-step
// refresh is still in flight its collective write legally overlaps the
// exchange — the same pattern as the in-situ P(k); the refresh is completed
// only before the replica write. Each container is assembled under a
// temporary name and renamed into place, so an interrupted checkpoint
// never leaves a truncated file under a restorable name. Collective.
func (s *Simulation) Checkpoint(dir string) (err error) {
	retries0 := s.Counters.CkptRetries
	s.Timers.Time(obs.SpanCheckpoint, func() { err = s.checkpoint(dir) })
	if s.journal != nil {
		rec := obs.CheckpointRecord{
			Kind:    "checkpoint",
			Step:    s.StepIndex,
			Dir:     dir,
			OK:      err == nil,
			Retries: s.Counters.CkptRetries - retries0,
		}
		if err != nil {
			rec.Err = err.Error()
		}
		s.journal.Record(rec)
	}
	return err
}

func (s *Simulation) checkpoint(dir string) error {
	ck := s.ensureCkpt()
	// Directory creation is the only pre-collective step that can fail on
	// one rank alone; agree before anyone enters the collective write.
	merr := os.MkdirAll(dir, 0o755)
	if !mpi.AllOK(s.Comm, merr == nil) {
		if merr != nil {
			return fmt.Errorf("core: checkpoint directory: %w", merr)
		}
		return fmt.Errorf("core: checkpoint directory %s failed on another rank", dir)
	}
	nGlobal := s.Dom.NGlobal()

	// State container: actives + counters (overlaps a pending refresh).
	s.Counters.Encode(ck.words[:machine.CounterWords])
	ck.words[machine.CounterWords] = s.Dom.Migrated
	ck.vars = snapshot.AppendParticleVars(ck.vars[:0], &s.Dom.Active)
	ck.vars = append(ck.vars, gio.Var{Name: "counters", Type: gio.Int64, I64: ck.words[:]})
	if err := s.writeRetry(filepath.Join(dir, StateFile), ck.encodeMeta(s, nGlobal, true), ck.vars); err != nil {
		return fmt.Errorf("core: checkpoint state: %w", err)
	}

	// Replica container: passives + origin segments (needs the refresh).
	s.FinishRefresh()
	ck.orank = ck.orank[:0]
	ck.on = ck.on[:0]
	for _, o := range s.Dom.RefreshOrigins() {
		ck.orank = append(ck.orank, int64(o.Rank))
		ck.on = append(ck.on, int64(o.N))
	}
	ck.vars = snapshot.AppendParticleVars(ck.vars[:0], &s.Dom.Passive)
	ck.vars = append(ck.vars,
		gio.Var{Name: "origin_rank", Type: gio.Int64, I64: ck.orank},
		gio.Var{Name: "origin_n", Type: gio.Int64, I64: ck.on},
	)
	if err := s.writeRetry(filepath.Join(dir, ReplicaFile), ck.encodeMeta(s, nGlobal, false), ck.vars); err != nil {
		return fmt.Errorf("core: checkpoint replicas: %w", err)
	}
	return nil
}

// writeRetry runs one collective container write, retrying transient
// failures up to Config.CheckpointRetries times with jittered exponential
// backoff. Every gio failure path is agreed via AllOK (and abandoned
// attempts remove their temporary file), so all ranks observe the same
// error, sleep the same deterministic interval, and re-enter the collective
// write in lockstep — no rank can be retrying while a peer has given up.
func (s *Simulation) writeRetry(path string, meta []byte, vars []gio.Var) error {
	ck := s.ckpt
	var err error
	for attempt := 0; ; attempt++ {
		err = ck.w.Write(path, meta, vars)
		if err == nil || attempt >= s.Cfg.CheckpointRetries {
			return err
		}
		s.Counters.CkptRetries++
		d := s.Cfg.CheckpointRetryBackoff << attempt
		if max := 32 * s.Cfg.CheckpointRetryBackoff; d > max {
			d = max
		}
		// Deterministic jitter in [0, d/2): identical on every rank (the
		// inputs are collective state), so the backoff cannot skew ranks
		// apart, but successive attempts and steps spread out.
		z := uint64(s.StepIndex+1)*0x9e3779b97f4a7c15 + uint64(attempt+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		d += time.Duration(z % uint64(d/2+1))
		time.Sleep(d)
	}
}

// maybeCheckpoint writes a cadenced checkpoint when the completed step
// index hits Config.CheckpointEvery.
func (s *Simulation) maybeCheckpoint() error {
	if s.Cfg.CheckpointEvery <= 0 || s.StepIndex%s.Cfg.CheckpointEvery != 0 {
		return nil
	}
	return s.Checkpoint(filepath.Join(s.Cfg.CheckpointDir, fmt.Sprintf("step%06d", s.StepIndex)))
}

// Restore rebuilds a running Simulation from a checkpoint step directory,
// continuing the integration from the recorded step. The configuration is
// taken from the checkpoint itself; mutate (optional) may adjust
// bitwise-neutral knobs — thread count, analysis and checkpoint output —
// before construction, but any change to a physics-defining field
// is rejected via the config fingerprint, because restart-exactness cannot
// hold across a physics change.
//
// The communicator may have a different size than the writing run: each
// rank adopts a round-robin share of the writer blocks and the particles
// are reassigned to their geometric owners through the domain layer. At
// the writing rank count the restore is bitwise-exact — particles return
// to their ranks in storage order and the replica container restores the
// passive store directly (or, when it is missing or stale, a refresh
// rebuilds the identical replicas). Collective; failures are agreed via
// mpi.AllOK, so even a fault only one rank observes (its own block's CRC,
// a local descriptor limit) surfaces as one consistent error on every rank
// instead of stranding the others in a collective. mutate must be
// deterministic across ranks, like any collective argument.
func Restore(c *mpi.Comm, dir string, mutate func(*Config)) (*Simulation, error) {
	// agree turns a possibly rank-local failure into a collective outcome:
	// either every rank proceeds, or every rank returns an error.
	agree := func(err error, what string) error {
		if mpi.AllOK(c, err == nil) {
			return nil
		}
		if err != nil {
			return err
		}
		return fmt.Errorf("core: restoring %s: %s failed on another rank", dir, what)
	}
	gr, err := gio.Open(filepath.Join(dir, StateFile))
	if err != nil {
		err = fmt.Errorf("core: %s is not a restorable checkpoint: %w", dir, err)
	}
	if aerr := agree(err, "opening the state container"); aerr != nil {
		if gr != nil {
			gr.Close()
		}
		return nil, aerr
	}
	defer gr.Close()
	// From here to the block reads, every check runs on identical data (the
	// verified index and meta are the same bytes on every rank), so errors
	// are symmetric and plain returns cannot strand a collective.
	m, trJSON, err := decodeCkptMeta(gr.Meta())
	if err != nil {
		return nil, err
	}
	if gr.NumRanks() != m.NRanks {
		return nil, fmt.Errorf("core: checkpoint state declares %d ranks but holds %d blocks", m.NRanks, gr.NumRanks())
	}
	var trail ckptTrailer
	if err := json.Unmarshal(trJSON, &trail); err != nil {
		return nil, fmt.Errorf("core: checkpoint trailer: %w", err)
	}
	cfg := trail.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	cfg = cfg.WithDefaults()
	if fp := cfg.Fingerprint(); fp != m.CfgFP {
		return nil, fmt.Errorf("core: restart config changes the physics (fingerprint %016x, checkpoint %016x); only output and threading knobs may differ across a restart", fp, m.CfgFP)
	}
	s, err := newSimulation(c, cfg)
	if err != nil {
		return nil, err
	}
	if m.StepIndex < 0 || m.StepIndex > s.sched.Steps {
		return nil, fmt.Errorf("core: checkpoint at step %d outside the configured schedule of %d steps", m.StepIndex, s.sched.Steps)
	}
	if a := s.sched.AAt(m.StepIndex); math.Float64bits(a) != math.Float64bits(m.A) {
		return nil, fmt.Errorf("core: checkpoint scale factor %v does not match schedule position %d (%v)", m.A, m.StepIndex, a)
	}
	// Adopt the recorded geometry before loading any blocks: at the writing
	// rank count the particle blocks were partitioned along these cuts, so
	// the bitwise round-robin restore below lands every particle on its
	// geometric owner directly. At a different rank count the recorded cuts
	// don't apply (the process grid differs); the uniform decomposition plus
	// the dense reassignment below handles it.
	if c.Size() == m.NRanks {
		if err := validCuts(trail.Cuts, s.Dec.N, s.Dec.Dims); err != nil {
			return nil, fmt.Errorf("core: checkpoint geometry: %w", err)
		}
		if !sameCuts(trail.Cuts, s.Dec.Cuts()) {
			s.adoptGeometry(trail.Cuts)
		}
	}

	// Adopt a round-robin share of the writer blocks: block order is
	// deterministic, so at the writing rank count every rank gets exactly
	// its own block back, in storage order. Reads touch per-rank blocks, so
	// a failure (one block's flipped CRC) can be asymmetric — agree on it.
	var words []int64
	var rerr error
	for fi := c.Rank(); fi < m.NRanks && rerr == nil; fi += c.Size() {
		if err := snapshot.ReadParticleRank(gr, fi, &s.Dom.Active); err != nil {
			rerr = fmt.Errorf("core: checkpoint state: %w", err)
			break
		}
		words, err = gio.ReadColumn(gr, fi, "counters", words[:0])
		if err != nil {
			rerr = fmt.Errorf("core: checkpoint state: %w", err)
			break
		}
		if len(words) != ckptCounterWords {
			rerr = fmt.Errorf("core: checkpoint counter block has %d words, want %d", len(words), ckptCounterWords)
			break
		}
		s.Counters.MergeRestored(words[:machine.CounterWords])
		s.Dom.Migrated += words[machine.CounterWords]
	}
	if aerr := agree(rerr, "reading state blocks"); aerr != nil {
		return nil, aerr
	}
	// FFT3D counts global transforms and must be identical on every rank;
	// ranks that adopted no blocks (more readers than writers) take the
	// maximum instead of staying at zero.
	s.Counters.FFT3D = mpi.AllReduce(c, []int64{s.Counters.FFT3D},
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})[0]
	if n := s.Dom.NGlobal(); n != m.NGlobal {
		return nil, fmt.Errorf("core: checkpoint holds %d particles, state meta declares %d", n, m.NGlobal)
	}
	s.StepIndex = m.StepIndex
	s.A = m.A
	s.SubstepsDone = m.SubstepsDone
	// Cost observations are counter deltas; the restored totals are history,
	// not this run's first step. Likewise the balancer starts a fresh epoch
	// at the restore point: its EWMA state is not checkpointed (it is a
	// heuristic, not physics), so the restart behaves like a rebalance just
	// fired — the model re-warms and the MinSteps hysteresis applies before
	// any new geometry change.
	s.lastInter = s.Counters.KernelInteractions
	s.lastWalk = s.Counters.WalkNodes
	if s.balancer != nil {
		s.balancer.Fired(m.StepIndex)
	}

	if c.Size() == m.NRanks {
		// Bitwise path: replicas restore directly when the replica container
		// is present and pairs with this state; otherwise a refresh rebuilds
		// the identical passive store (the planned exchange is deterministic
		// in the active storage order, which we just restored). The fallback
		// decision is collective: if any rank's replica block is unusable,
		// every rank refreshes — Refresh is collective and resets whatever
		// partial restore the healthy ranks made.
		if !mpi.AllOK(c, s.restoreReplicas(dir, m)) {
			s.Dom.Refresh()
		}
	} else {
		// Different rank count: reassign every record to its geometric owner
		// (arbitrary motion, so the dense path, not the 26-stencil plan),
		// then rebuild replicas. The migration bookkeeping is restored
		// state, not new physics — put it back afterwards.
		mig := s.Dom.Migrated
		s.Dom.MigrateDense()
		s.Dom.Migrated = mig
		s.Dom.Refresh()
	}
	if cfg.AnalysisEvery > 0 {
		s.ensureAnalysis(cfg.AnalysisBins)
	}
	return s, nil
}

// restoreReplicas loads the passive store and its origin segments from the
// replica container, reporting false (leaving the passive store empty) when
// the container is absent, unreadable, or stale — any of which simply
// routes the caller to an ordinary refresh, since replicas are always
// reconstructible from their owners.
func (s *Simulation) restoreReplicas(dir string, m ckptMeta) bool {
	gr, err := gio.Open(filepath.Join(dir, ReplicaFile))
	if err != nil {
		return false
	}
	defer gr.Close()
	rm, _, err := decodeCkptMeta(gr.Meta())
	if err != nil || gr.NumRanks() != m.NRanks ||
		rm.NRanks != m.NRanks || rm.StepIndex != m.StepIndex ||
		math.Float64bits(rm.A) != math.Float64bits(m.A) || rm.CfgFP != m.CfgFP {
		return false
	}
	bail := func() bool {
		s.Dom.Passive.Reset()
		return false
	}
	s.Dom.Passive.Reset()
	if err := snapshot.ReadParticleRank(gr, s.Comm.Rank(), &s.Dom.Passive); err != nil {
		return bail()
	}
	orank, err := gio.ReadColumn[int64](gr, s.Comm.Rank(), "origin_rank", nil)
	if err != nil {
		return bail()
	}
	on, err := gio.ReadColumn[int64](gr, s.Comm.Rank(), "origin_n", nil)
	if err != nil || len(on) != len(orank) {
		return bail()
	}
	origins := make([]domain.Origin, len(orank))
	for i := range orank {
		origins[i] = domain.Origin{Rank: int(orank[i]), N: int(on[i])}
	}
	if s.Dom.SetOrigins(origins) != nil {
		return bail()
	}
	return true
}

// LatestCheckpoint returns the newest restorable step directory under a
// cadenced checkpoint root: the highest step%06d subdirectory whose state
// container opens and CRC-verifies cleanly — the index and every data
// block (a crash can leave a renamed container whose index is intact but
// whose data pages never reached disk). Corrupt or half-written
// checkpoints are skipped, so a crash during the very last write still
// leaves the previous checkpoint reachable; the probe reads the file it
// will hand to Restore, which reads it anyway.
func LatestCheckpoint(root string) (string, error) {
	if _, err := os.Stat(root); err != nil {
		return "", fmt.Errorf("core: scanning checkpoints: %w", err)
	}
	for _, dir := range checkpointDirs(root) {
		gr, err := gio.Open(filepath.Join(dir, StateFile))
		if err != nil {
			continue
		}
		err = gr.Verify()
		gr.Close()
		if err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("core: no restorable checkpoint under %s", root)
}

// ResolveCheckpoint accepts either a checkpoint step directory or a
// cadenced checkpoint root and returns the step directory to restore (the
// newest restorable one, for a root). Only a cleanly absent state
// container falls through to the root scan — a present-but-unreadable one
// (permissions) surfaces its real error rather than a misleading
// "no checkpoint found".
func ResolveCheckpoint(path string) (string, error) {
	_, err := os.Stat(filepath.Join(path, StateFile))
	switch {
	case err == nil:
		return path, nil
	case os.IsNotExist(err):
		return LatestCheckpoint(path)
	default:
		return "", fmt.Errorf("core: checking %s: %w", path, err)
	}
}

// CheckpointInfo summarizes a checkpoint's run state for tools.
type CheckpointInfo struct {
	Cfg       Config
	Cuts      [3][]int // decomposition geometry at checkpoint time
	StepIndex int
	A         float64
	NRanks    int
	NGlobal   int64
}

// OpenCheckpoint opens a checkpoint step directory's state container for
// direct column access (haccpower reads particle columns straight out of
// it) and returns its decoded run state. The caller owns the reader.
func OpenCheckpoint(dir string) (*gio.Reader, CheckpointInfo, error) {
	var info CheckpointInfo
	gr, err := gio.Open(filepath.Join(dir, StateFile))
	if err != nil {
		return nil, info, fmt.Errorf("core: %s is not a restorable checkpoint: %w", dir, err)
	}
	m, trJSON, err := decodeCkptMeta(gr.Meta())
	if err != nil {
		gr.Close()
		return nil, info, err
	}
	var trail ckptTrailer
	if err := json.Unmarshal(trJSON, &trail); err != nil {
		gr.Close()
		return nil, info, fmt.Errorf("core: checkpoint trailer: %w", err)
	}
	info = CheckpointInfo{Cfg: trail.Cfg, Cuts: trail.Cuts, StepIndex: m.StepIndex, A: m.A, NRanks: m.NRanks, NGlobal: m.NGlobal}
	return gr, info, nil
}

// ReadCheckpointInfo reads a checkpoint's run state without touching the
// particle payload.
func ReadCheckpointInfo(dir string) (CheckpointInfo, error) {
	gr, info, err := OpenCheckpoint(dir)
	if err != nil {
		return info, err
	}
	gr.Close()
	return info, nil
}
