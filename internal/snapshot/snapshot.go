// Package snapshot stores simulation products — particle snapshots, halo
// catalogs, and power spectra — as gio containers: one durable, versioned,
// CRC-protected layout shared with the checkpoint subsystem. See doc.go.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"hacc/internal/domain"
	"hacc/internal/gio"
)

// Version of the snapshot schema carried inside the container meta blob.
// Version 1 was the pre-container raw-block format; version 2 moved every
// product onto the gio container (PR 5).
const Version = 2

// Product kinds stored in the meta blob, so a particle snapshot, a halo
// catalog, and a spectrum cannot be confused even though they share the
// container layout.
const (
	kindParticles = 1
	kindHalos     = 2
	kindSpectrum  = 3
)

// Header describes a snapshot. It rides in the container's meta blob; NP is
// filled from the container's row counts on read.
type Header struct {
	NGrid  uint32
	NP     uint64 // record count in this file
	BoxMpc float64
	A      float64 // scale factor at the time of writing
	OmegaM float64
	Seed   uint64
}

// metaSize is the fixed wire size of the meta blob: kind, schema version,
// NGrid, pad, then BoxMpc, A, OmegaM, Seed, and one product-specific extra
// (the spectrum's shot noise).
const metaSize = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8

// encodeMeta packs the product kind, schema version, and header into a meta
// blob (appending onto dst, which may be a reused buffer).
func encodeMeta(dst []byte, kind uint32, h Header, extra float64) []byte {
	var b [metaSize]byte
	binary.LittleEndian.PutUint32(b[0:], kind)
	binary.LittleEndian.PutUint32(b[4:], Version)
	binary.LittleEndian.PutUint32(b[8:], h.NGrid)
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(h.BoxMpc))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(h.A))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(h.OmegaM))
	binary.LittleEndian.PutUint64(b[40:], h.Seed)
	binary.LittleEndian.PutUint64(b[48:], math.Float64bits(extra))
	return append(dst, b[:]...)
}

// decodeMeta unpacks a meta blob and checks the product kind and schema
// version.
func decodeMeta(meta []byte, wantKind uint32, what string) (Header, float64, error) {
	var h Header
	if len(meta) < metaSize {
		return h, 0, fmt.Errorf("snapshot: %s meta blob is %d bytes, want %d", what, len(meta), metaSize)
	}
	kind := binary.LittleEndian.Uint32(meta[0:])
	version := binary.LittleEndian.Uint32(meta[4:])
	if kind != wantKind {
		return h, 0, fmt.Errorf("snapshot: container holds product kind %d, want %s (kind %d)", kind, what, wantKind)
	}
	if version != Version {
		return h, 0, fmt.Errorf("snapshot: unsupported %s schema version %d (this build reads version %d)", what, version, Version)
	}
	h.NGrid = binary.LittleEndian.Uint32(meta[8:])
	h.BoxMpc = math.Float64frombits(binary.LittleEndian.Uint64(meta[16:]))
	h.A = math.Float64frombits(binary.LittleEndian.Uint64(meta[24:]))
	h.OmegaM = math.Float64frombits(binary.LittleEndian.Uint64(meta[32:]))
	h.Seed = binary.LittleEndian.Uint64(meta[40:])
	extra := math.Float64frombits(binary.LittleEndian.Uint64(meta[48:]))
	return h, extra, nil
}

// AppendParticleVars appends the canonical particle column declarations —
// x, y, z, vx, vy, vz (float32) and id (uint64) — over p's storage onto
// vars and returns the extended slice. No copies are made: the gio writer
// streams the slices in place. Snapshots and checkpoints share this schema,
// so any particle container the code emits is readable by the same decode
// path (ReadParticleRank).
func AppendParticleVars(vars []gio.Var, p *domain.Particles) []gio.Var {
	return append(vars,
		gio.Var{Name: "x", Type: gio.Float32, F32: p.X},
		gio.Var{Name: "y", Type: gio.Float32, F32: p.Y},
		gio.Var{Name: "z", Type: gio.Float32, F32: p.Z},
		gio.Var{Name: "vx", Type: gio.Float32, F32: p.Vx},
		gio.Var{Name: "vy", Type: gio.Float32, F32: p.Vy},
		gio.Var{Name: "vz", Type: gio.Float32, F32: p.Vz},
		gio.Var{Name: "id", Type: gio.Uint64, U64: p.ID},
	)
}

// readParticles decodes every writer rank's particle columns from an open
// container, appending into a fresh Particles store.
func readParticles(gr *gio.Reader, wantKind uint32) (Header, *domain.Particles, error) {
	h, _, err := decodeMeta(gr.Meta(), wantKind, "particle snapshot")
	if err != nil {
		return h, nil, err
	}
	p := &domain.Particles{}
	if err := ReadParticleRank(gr, -1, p); err != nil {
		return h, nil, err
	}
	h.NP = uint64(p.Len())
	return h, p, nil
}

// ReadParticleRank appends the particle columns of one writer rank (or of
// every rank, when rank is negative) onto dst. It is the shared decode path
// for snapshot loading, the distributed analysis tools, and the
// checkpoint restore's rank-count-changing reassignment.
func ReadParticleRank(gr *gio.Reader, rank int, dst *domain.Particles) error {
	lo, hi := rank, rank+1
	if rank < 0 {
		lo, hi = 0, gr.NumRanks()
	}
	for r := lo; r < hi; r++ {
		var err error
		if dst.X, err = gio.ReadColumn(gr, r, "x", dst.X); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.Y, err = gio.ReadColumn(gr, r, "y", dst.Y); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.Z, err = gio.ReadColumn(gr, r, "z", dst.Z); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.Vx, err = gio.ReadColumn(gr, r, "vx", dst.Vx); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.Vy, err = gio.ReadColumn(gr, r, "vy", dst.Vy); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.Vz, err = gio.ReadColumn(gr, r, "vz", dst.Vz); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if dst.ID, err = gio.ReadColumn(gr, r, "id", dst.ID); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		// Check per rank, not just in total: ragged per-rank columns whose
		// totals happen to agree would otherwise pair coordinates across
		// writer ranks silently.
		if n := len(dst.X); len(dst.Y) != n || len(dst.Z) != n || len(dst.Vx) != n ||
			len(dst.Vy) != n || len(dst.Vz) != n || len(dst.ID) != n {
			return fmt.Errorf("snapshot: rank %d particle columns have inconsistent lengths", r)
		}
	}
	return nil
}

// LoadHeader reads only the index and meta blob of the particle snapshot at
// path, without decoding the particle payload — for callers that need
// counts and run metadata up front (haccpower's file scan). Opening the
// container already validates the index against the file size.
func LoadHeader(path string) (Header, error) {
	gr, err := openContainer(path)
	if err != nil {
		return Header{}, err
	}
	defer gr.Close()
	h, _, err := decodeMeta(gr.Meta(), kindParticles, "particle snapshot")
	if err != nil {
		return h, err
	}
	for r := 0; r < gr.NumRanks(); r++ {
		rows, err := gr.Rows(r, "x")
		if err != nil {
			return h, fmt.Errorf("snapshot: %w", err)
		}
		h.NP += uint64(rows)
	}
	return h, nil
}

// SaveFile writes the particles to path as a single-rank container. The
// header's NP field is ignored: record counts live in the container's rank
// table and are re-derived (and size-validated) on read.
func SaveFile(path string, h Header, p *domain.Particles) error {
	return saveContainer(path, encodeMeta(nil, kindParticles, h, 0), AppendParticleVars(nil, p))
}

// LoadFile reads a snapshot from path with O(1) index access.
func LoadFile(path string) (Header, *domain.Particles, error) {
	gr, err := openContainer(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer gr.Close()
	return readParticles(gr, kindParticles)
}

// saveContainer writes one single-rank product container to path.
func saveContainer(path string, meta []byte, vars []gio.Var) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gio.WriteTo(f, meta, vars); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openContainer opens a product container file. Every read allocation is
// bounded by the index, which gio.Open has checked against the real file
// size.
func openContainer(path string) (*gio.Reader, error) {
	gr, err := gio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return gr, nil
}
