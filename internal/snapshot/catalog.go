package snapshot

import (
	"fmt"

	"hacc/internal/analysis"
	"hacc/internal/gio"
)

// Halo catalogs and power spectra share the container layout with particle
// snapshots; the meta blob's product kind keeps them distinct. Catalogs are
// the paper's survey product, not particle dumps — halo Members stay in
// memory.

// SaveHalos writes one rank's halo catalog to path.
func SaveHalos(path string, h Header, halos []analysis.Halo) error {
	n := len(halos)
	cols := struct {
		gid  []uint64
		nmem []int64
		f    [8][]float64 // mass, x, y, z, vx, vy, vz, rmax
	}{gid: make([]uint64, n), nmem: make([]int64, n)}
	for i := range cols.f {
		cols.f[i] = make([]float64, n)
	}
	for i := range halos {
		cols.gid[i] = halos[i].GID
		cols.nmem[i] = int64(halos[i].N)
		cols.f[0][i] = halos[i].Mass
		cols.f[1][i] = halos[i].X
		cols.f[2][i] = halos[i].Y
		cols.f[3][i] = halos[i].Z
		cols.f[4][i] = halos[i].VX
		cols.f[5][i] = halos[i].VY
		cols.f[6][i] = halos[i].VZ
		cols.f[7][i] = halos[i].RMax
	}
	vars := []gio.Var{
		{Name: "gid", Type: gio.Uint64, U64: cols.gid},
		{Name: "n", Type: gio.Int64, I64: cols.nmem},
		{Name: "mass", Type: gio.Float64, F64: cols.f[0]},
		{Name: "x", Type: gio.Float64, F64: cols.f[1]},
		{Name: "y", Type: gio.Float64, F64: cols.f[2]},
		{Name: "z", Type: gio.Float64, F64: cols.f[3]},
		{Name: "vx", Type: gio.Float64, F64: cols.f[4]},
		{Name: "vy", Type: gio.Float64, F64: cols.f[5]},
		{Name: "vz", Type: gio.Float64, F64: cols.f[6]},
		{Name: "rmax", Type: gio.Float64, F64: cols.f[7]},
	}
	return saveContainer(path, encodeMeta(nil, kindHalos, h, 0), vars)
}

// readHalos decodes a halo catalog from an open container.
func readHalos(gr *gio.Reader) (Header, []analysis.Halo, error) {
	h, _, err := decodeMeta(gr.Meta(), kindHalos, "halo catalog")
	if err != nil {
		return h, nil, err
	}
	var (
		gid  []uint64
		nmem []int64
		f    [8][]float64
	)
	names := [8]string{"mass", "x", "y", "z", "vx", "vy", "vz", "rmax"}
	for rank := 0; rank < gr.NumRanks(); rank++ {
		if gid, err = gio.ReadColumn(gr, rank, "gid", gid); err != nil {
			return h, nil, fmt.Errorf("snapshot: %w", err)
		}
		if nmem, err = gio.ReadColumn(gr, rank, "n", nmem); err != nil {
			return h, nil, fmt.Errorf("snapshot: %w", err)
		}
		for i, name := range names {
			if f[i], err = gio.ReadColumn(gr, rank, name, f[i]); err != nil {
				return h, nil, fmt.Errorf("snapshot: %w", err)
			}
		}
		// Per-rank consistency: ragged per-rank columns with agreeing
		// totals must not pair records across writer ranks.
		if len(nmem) != len(gid) {
			return h, nil, fmt.Errorf("snapshot: rank %d halo columns have inconsistent lengths", rank)
		}
		for i := range f {
			if len(f[i]) != len(gid) {
				return h, nil, fmt.Errorf("snapshot: rank %d halo columns have inconsistent lengths", rank)
			}
		}
	}
	halos := make([]analysis.Halo, len(gid))
	for i := range halos {
		halos[i] = analysis.Halo{
			GID: gid[i], N: int(nmem[i]), Mass: f[0][i],
			X: f[1][i], Y: f[2][i], Z: f[3][i],
			VX: f[4][i], VY: f[5][i], VZ: f[6][i],
			RMax: f[7][i],
		}
	}
	h.NP = uint64(len(halos))
	return h, halos, nil
}

// SaveSpectrum writes a binned power spectrum to path; the shot-noise level
// rides in the meta blob.
func SaveSpectrum(path string, h Header, ps *analysis.PowerSpectrum) error {
	vars := []gio.Var{
		{Name: "k", Type: gio.Float64, F64: ps.K},
		{Name: "p", Type: gio.Float64, F64: ps.P},
		{Name: "nmodes", Type: gio.Int64, I64: ps.NModes},
	}
	return saveContainer(path, encodeMeta(nil, kindSpectrum, h, ps.ShotNoise), vars)
}

// readSpectrum decodes a spectrum from an open container.
func readSpectrum(gr *gio.Reader) (Header, *analysis.PowerSpectrum, error) {
	h, shot, err := decodeMeta(gr.Meta(), kindSpectrum, "spectrum")
	if err != nil {
		return h, nil, err
	}
	ps := &analysis.PowerSpectrum{ShotNoise: shot}
	for rank := 0; rank < gr.NumRanks(); rank++ {
		if ps.K, err = gio.ReadColumn(gr, rank, "k", ps.K); err != nil {
			return h, nil, fmt.Errorf("snapshot: %w", err)
		}
		if ps.P, err = gio.ReadColumn(gr, rank, "p", ps.P); err != nil {
			return h, nil, fmt.Errorf("snapshot: %w", err)
		}
		if ps.NModes, err = gio.ReadColumn(gr, rank, "nmodes", ps.NModes); err != nil {
			return h, nil, fmt.Errorf("snapshot: %w", err)
		}
		if len(ps.P) != len(ps.K) || len(ps.NModes) != len(ps.K) {
			return h, nil, fmt.Errorf("snapshot: rank %d spectrum columns have inconsistent lengths", rank)
		}
	}
	h.NP = uint64(len(ps.K))
	return h, ps, nil
}

// LoadHalos reads a halo catalog from path with O(1) index access.
func LoadHalos(path string) (Header, []analysis.Halo, error) {
	gr, err := openContainer(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer gr.Close()
	return readHalos(gr)
}

// LoadSpectrum reads a power spectrum from path with O(1) index access.
func LoadSpectrum(path string) (Header, *analysis.PowerSpectrum, error) {
	gr, err := openContainer(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer gr.Close()
	return readSpectrum(gr)
}
