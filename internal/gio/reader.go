package gio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"hacc/internal/fault"
)

// VarInfo describes one column of an open container.
type VarInfo struct {
	Name string
	Type Type
}

// Index is the parsed, CRC-verified front matter of a container: the column
// table, the meta blob, and the per-rank (offset, rows) table. An Index on
// its own supports every metadata query; reading column data additionally
// needs the random-access Reader.
type Index struct {
	nranks  int
	vars    []VarInfo
	meta    []byte
	offsets []uint64 // per-rank first-block offset
	rows    [][]uint64
	size    int64 // declared container size
}

// NumRanks returns the number of writer ranks recorded in the container.
func (ix *Index) NumRanks() int { return ix.nranks }

// Meta returns the container's metadata blob (index-owned; callers must not
// modify it).
func (ix *Index) Meta() []byte { return ix.meta }

// Vars returns the column descriptors in on-disk order (index-owned).
func (ix *Index) Vars() []VarInfo { return ix.vars }

// Size returns the container's total size in bytes.
func (ix *Index) Size() int64 { return ix.size }

// varIndex resolves a column name.
func (ix *Index) varIndex(name string) (int, error) {
	for i := range ix.vars {
		if ix.vars[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("gio: no column %q in container", name)
}

// Rows returns the number of records writer rank r stored in the named
// column.
func (ix *Index) Rows(rank int, name string) (int64, error) {
	if rank < 0 || rank >= ix.nranks {
		return 0, fmt.Errorf("gio: rank %d out of range [0,%d)", rank, ix.nranks)
	}
	vi, err := ix.varIndex(name)
	if err != nil {
		return 0, err
	}
	return int64(ix.rows[rank][vi]), nil
}

// blockAt returns the file offset and row count of (rank, var vi). The
// offsets were validated against the actual file size when the index was
// parsed, so the returned range is trusted.
func (ix *Index) blockAt(rank, vi int) (off int64, rows uint64) {
	off = int64(ix.offsets[rank])
	for u := 0; u < vi; u++ {
		off += int64(blockSize(ix.rows[rank][u], ix.vars[u].Type.Size()))
	}
	return off, ix.rows[rank][vi]
}

// parseIndex validates and parses a complete index region, reading the
// part past the fixed header from ra. actualSize is the real readable
// container size; it must match the declared file size exactly, which
// catches truncation before any data read.
func parseIndex(hdr []byte, ra io.ReaderAt, actualSize int64) (*Index, error) {
	if len(hdr) < headerSize {
		return nil, fmt.Errorf("gio: container too small: %d bytes, need at least the %d-byte header", len(hdr), headerSize)
	}
	if !bytes.Equal(hdr[0:8], magic[:]) {
		return nil, fmt.Errorf("gio: not a container (bad magic %x)", hdr[0:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:])
	if version != Version {
		return nil, fmt.Errorf("gio: unsupported container version %d (this build reads version %d)", version, Version)
	}
	nranks := int(binary.LittleEndian.Uint32(hdr[12:]))
	nvars := int(binary.LittleEndian.Uint32(hdr[16:]))
	metaLen := int(binary.LittleEndian.Uint32(hdr[20:]))
	dataStart := binary.LittleEndian.Uint64(hdr[24:])
	fileSize := binary.LittleEndian.Uint64(hdr[32:])
	wantCRC := binary.LittleEndian.Uint32(hdr[40:])
	if nranks < 1 || nranks > maxRanks {
		return nil, fmt.Errorf("gio: corrupt header: %d ranks outside [1,%d]", nranks, maxRanks)
	}
	if nvars < 1 || nvars > maxVars {
		return nil, fmt.Errorf("gio: corrupt header: %d columns outside [1,%d]", nvars, maxVars)
	}
	if want := indexSize(nvars, nranks, metaLen); dataStart != uint64(want) {
		return nil, fmt.Errorf("gio: corrupt header: data start %d, computed %d", dataStart, want)
	}
	if fileSize < dataStart {
		return nil, fmt.Errorf("gio: corrupt header: file size %d smaller than index %d", fileSize, dataStart)
	}
	if int64(fileSize) != actualSize {
		return nil, fmt.Errorf("gio: truncated container: header declares %d bytes, have %d", fileSize, actualSize)
	}
	// Fetch the remainder of the index; its size is now bounded by real
	// bytes on disk.
	body := make([]byte, int64(dataStart)-headerSize)
	if _, err := ra.ReadAt(body, headerSize); err != nil {
		return nil, fmt.Errorf("gio: truncated container index: %w", err)
	}
	// Verify the index CRC with the stored CRC field zeroed.
	crc := crc32.Update(0, castagnoli, hdr[:40])
	crc = crc32.Update(crc, castagnoli, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, castagnoli, hdr[44:headerSize])
	crc = crc32.Update(crc, castagnoli, body)
	if crc != wantCRC {
		return nil, fmt.Errorf("gio: index CRC mismatch: have %08x, want %08x", crc, wantCRC)
	}

	ix := &Index{nranks: nranks, size: int64(fileSize)}
	ix.vars = make([]VarInfo, nvars)
	for i := 0; i < nvars; i++ {
		e := body[i*varEntrySize:]
		name := e[:nameSize]
		if k := bytes.IndexByte(name, 0); k >= 0 {
			name = name[:k]
		}
		typ := Type(binary.LittleEndian.Uint32(e[nameSize:]))
		elem := int(binary.LittleEndian.Uint32(e[nameSize+4:]))
		if typ.Size() == 0 {
			return nil, fmt.Errorf("gio: column %q has unknown type code %d", name, uint32(typ))
		}
		if elem != typ.Size() {
			return nil, fmt.Errorf("gio: column %q declares element size %d, %v needs %d", name, elem, typ, typ.Size())
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("gio: column %d has an empty name", i)
		}
		ix.vars[i] = VarInfo{Name: string(name), Type: typ}
	}
	for i := range ix.vars {
		for j := 0; j < i; j++ {
			if ix.vars[j].Name == ix.vars[i].Name {
				return nil, fmt.Errorf("gio: duplicate column name %q", ix.vars[i].Name)
			}
		}
	}
	ix.meta = append([]byte(nil), body[nvars*varEntrySize:nvars*varEntrySize+metaLen]...)

	// Rank table: every stored offset must equal the running layout sum and
	// every block must fit inside the declared file, so nothing a later Read
	// seeks to can be outside real data.
	rt := body[nvars*varEntrySize+metaLen:]
	ix.offsets = make([]uint64, nranks)
	ix.rows = make([][]uint64, nranks)
	rowsFlat := make([]uint64, nranks*nvars)
	expect := dataStart
	for r := 0; r < nranks; r++ {
		e := rt[r*8*(1+nvars):]
		ix.offsets[r] = binary.LittleEndian.Uint64(e)
		if ix.offsets[r] != expect {
			return nil, fmt.Errorf("gio: corrupt rank table: rank %d data at %d, want %d", r, ix.offsets[r], expect)
		}
		ix.rows[r] = rowsFlat[r*nvars : (r+1)*nvars]
		for v := 0; v < nvars; v++ {
			rows := binary.LittleEndian.Uint64(e[8*(1+v):])
			elem := uint64(ix.vars[v].Type.Size())
			if rows > (fileSize-expect)/elem {
				return nil, fmt.Errorf("gio: corrupt rank table: rank %d column %q declares %d rows, container has %d bytes left",
					r, ix.vars[v].Name, rows, fileSize-expect)
			}
			ix.rows[r][v] = rows
			expect += blockSize(rows, int(elem))
			if expect > fileSize {
				return nil, fmt.Errorf("gio: corrupt rank table: rank %d data ends at %d, past file size %d", r, expect, fileSize)
			}
		}
	}
	if expect != fileSize {
		return nil, fmt.Errorf("gio: corrupt rank table: data ends at %d, file size %d", expect, fileSize)
	}
	return ix, nil
}

// Reader is an open container with O(1) random access to any writer rank's
// column blocks.
type Reader struct {
	*Index
	ra     io.ReaderAt
	closer io.Closer
}

// Open opens a container file and parses + verifies its index.
func Open(path string) (*Reader, error) {
	if inj := fault.Armed(); inj != nil {
		if err := inj.HitErr(fault.PointRead, -1, -1); err != nil {
			return nil, fmt.Errorf("%w (opening %s)", err, path)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	r.closer = f
	return r, nil
}

// NewReader parses a container from any random-access source of the given
// actual size (e.g. a bytes.Reader for an in-memory container).
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	hdr := make([]byte, headerSize)
	if size >= headerSize {
		if _, err := ra.ReadAt(hdr, 0); err != nil {
			return nil, fmt.Errorf("gio: reading container header: %w", err)
		}
	} else if size > 0 {
		hdr = hdr[:size]
		if _, err := ra.ReadAt(hdr, 0); err != nil {
			return nil, fmt.Errorf("gio: reading container header: %w", err)
		}
	} else {
		hdr = nil
	}
	ix, err := parseIndex(hdr, ra, size)
	if err != nil {
		return nil, err
	}
	return &Reader{Index: ix, ra: ra}, nil
}

// Close releases the underlying file, when the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Verify reads and CRC-checks every column block of every writer rank
// without decoding any of them — the full-container integrity probe a
// restorable-checkpoint scan uses before committing to a file (the index
// CRC alone cannot vouch for the data region).
func (r *Reader) Verify() error {
	for rank := 0; rank < r.nranks; rank++ {
		for vi := range r.vars {
			if _, err := r.readBlock(rank, vi); err != nil {
				return err
			}
		}
	}
	return nil
}

// readBlock fetches and CRC-verifies one column block's payload.
func (r *Reader) readBlock(rank, vi int) ([]byte, error) {
	if inj := fault.Armed(); inj != nil {
		if err := inj.HitErr(fault.PointRead, -1, -1); err != nil {
			return nil, fmt.Errorf("gio: reading column %q of rank %d: %w", r.vars[vi].Name, rank, err)
		}
	}
	off, rows := r.blockAt(rank, vi)
	n := rows * uint64(r.vars[vi].Type.Size())
	buf := make([]byte, n+crcFooterSize)
	if _, err := r.ra.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("gio: reading column %q of rank %d: %w", r.vars[vi].Name, rank, err)
	}
	want := binary.LittleEndian.Uint32(buf[n:])
	if crc := crc32.Checksum(buf[:n], castagnoli); crc != want {
		return nil, fmt.Errorf("gio: column %q of rank %d: block CRC mismatch (have %08x, want %08x)",
			r.vars[vi].Name, rank, crc, want)
	}
	return buf[:n], nil
}

// Elem constrains the readable column element types (exact types, so the
// decoder's type switch is total).
type Elem interface {
	float32 | float64 | int64 | uint64
}

// ReadColumn appends writer rank `rank`'s named column onto dst and returns
// the extended slice. The stored element type must match T exactly; the
// block's CRC32-C footer is verified before any element is returned.
func ReadColumn[T Elem](r *Reader, rank int, name string, dst []T) ([]T, error) {
	if rank < 0 || rank >= r.nranks {
		return dst, fmt.Errorf("gio: rank %d out of range [0,%d)", rank, r.nranks)
	}
	vi, err := r.varIndex(name)
	if err != nil {
		return dst, err
	}
	var want Type
	switch any(dst).(type) {
	case []float32:
		want = Float32
	case []float64:
		want = Float64
	case []int64:
		want = Int64
	case []uint64:
		want = Uint64
	}
	if got := r.vars[vi].Type; got != want {
		return dst, fmt.Errorf("gio: column %q holds %v, asked for %v", name, got, want)
	}
	raw, err := r.readBlock(rank, vi)
	if err != nil {
		return dst, err
	}
	switch d := any(&dst).(type) {
	case *[]float32:
		for i := 0; i+4 <= len(raw); i += 4 {
			*d = append(*d, math.Float32frombits(binary.LittleEndian.Uint32(raw[i:])))
		}
	case *[]float64:
		for i := 0; i+8 <= len(raw); i += 8 {
			*d = append(*d, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
	case *[]int64:
		for i := 0; i+8 <= len(raw); i += 8 {
			*d = append(*d, int64(binary.LittleEndian.Uint64(raw[i:])))
		}
	case *[]uint64:
		for i := 0; i+8 <= len(raw); i += 8 {
			*d = append(*d, binary.LittleEndian.Uint64(raw[i:]))
		}
	}
	return dst, nil
}
