package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// RunRecord heads a rank's journal: one per attempt that opens it (a fresh
// run, a restore, a supervised restart), so every step record below it is
// attributable to a world size, a solver and the short-range kernel body
// that computed it. All kernel bodies are bit-identical; the name is
// provenance for the timings.
type RunRecord struct {
	Kind       string `json:"kind"` // "run"
	Rank       int    `json:"rank"`
	Ranks      int    `json:"ranks"`
	Solver     string `json:"solver"`
	KernelISA  string `json:"kernel_isa"` // shortrange.KernelISA(): avx2 | sse2 | portable
	NParticles int    `json:"np"`
	NGrid      int    `json:"ng"`
}

// StepRecord is one completed full step in the run journal.
type StepRecord struct {
	Kind       string             `json:"kind"` // "step"
	Step       int                `json:"step"` // completed steps so far (1-based)
	A          float64            `json:"a"`    // scale factor after the step
	Da         float64            `json:"da"`   // scale-factor increment of the step
	WallMs     float64            `json:"wall_ms"`
	PhaseMs    map[string]float64 `json:"phase_ms,omitempty"` // per-phase delta over this step
	Imbalance  float64            `json:"imbalance"`          // balancer's smoothed max/mean (1 = balanced/disabled)
	Rebalances int64              `json:"rebalances"`         // cumulative
	Restarts   int64              `json:"restarts"`           // cumulative (nonzero after a supervised resume)
}

// CheckpointRecord is one checkpoint attempt's outcome.
type CheckpointRecord struct {
	Kind    string `json:"kind"` // "checkpoint"
	Step    int    `json:"step"`
	Dir     string `json:"dir"`
	OK      bool   `json:"ok"`
	Retries int64  `json:"retries,omitempty"` // write retries spent on this checkpoint
	Err     string `json:"err,omitempty"`
}

// IncidentRecord is one supervised-run failure (core's supervisor recovery
// log, journaled when tracing is configured).
type IncidentRecord struct {
	Kind        string   `json:"kind"` // "incident"
	Attempt     int      `json:"attempt"`
	Class       string   `json:"class"`
	Err         string   `json:"err,omitempty"`
	Resume      string   `json:"resume,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	BackoffMs   float64  `json:"backoff_ms,omitempty"`
}

// Journal is an append-only JSONL record stream: one self-describing JSON
// object per line. The file is opened O_APPEND and every Record is a single
// write, so completed lines survive a crash mid-run and a supervised
// restart appends to the same history instead of truncating it. All methods
// are safe on a nil Journal (no-ops), so callers thread an optional journal
// without nil checks.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// JournalPath returns the per-rank journal path under dir.
func JournalPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("journal.r%03d.jsonl", rank))
}

// OpenJournal opens (creating as needed) rank's journal under dir.
func OpenJournal(dir string, rank int) (*Journal, error) {
	return OpenJournalFile(JournalPath(dir, rank))
}

// OpenJournalFile opens (creating as needed) a journal at an explicit path
// — the supervisor's incident log, which is not a rank product.
func OpenJournalFile(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("obs: journal directory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Path returns the journal file path ("" on a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Record appends one record as a JSON line. No-op on a nil journal.
func (j *Journal) Record(v any) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("obs: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("obs: appending to journal: %w", err)
	}
	return nil
}

// Close closes the journal file. No-op on a nil journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// TailJournal returns the last n lines of a journal file (fewer when the
// file is shorter). The whole file is read — journals are step-cadence
// small; a run of thousands of steps is a few hundred KB.
func TailJournal(path string, n int) ([]string, error) {
	if n <= 0 {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'})
	if len(lines) == 1 && len(lines[0]) == 0 {
		return nil, nil
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	return out, nil
}
