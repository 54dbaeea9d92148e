package gio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Container format constants. The on-disk layout is, in order:
//
//	header     48 bytes (magic, version, counts, data start, file size, CRC)
//	var table  NVars × 32 bytes (name, type code, element size)
//	meta blob  MetaLen bytes (caller-owned run metadata, rank 0's copy)
//	rank table NRanks × 8·(1+NVars) bytes (data offset, per-column rows)
//	data       per rank, columns in table order: payload ‖ CRC32-C footer
//
// Everything before the data region is the index; it carries its own
// CRC32-C so a corrupt or truncated file is rejected before any
// header-declared size is trusted. Rank r's data begins at the offset
// recorded in its rank-table entry, so reading one rank's columns is an
// O(1) seek, independent of the container's total size.
const (
	// Version of the container layout.
	Version = 1

	headerSize    = 48
	varEntrySize  = 32
	nameSize      = 24
	crcFooterSize = 4

	// maxVars and maxRanks bound what an untrusted header can make the
	// reader allocate before the index CRC has been verified.
	maxVars  = 1 << 12
	maxRanks = 1 << 22

	// chunkBytes sizes the persistent conversion buffer the writers stream
	// columns through (encode + CRC + write per chunk, so no O(column)
	// buffer is ever allocated).
	chunkBytes = 1 << 18
)

// magic identifies a container file; any other prefix fails to open with a
// "bad magic" error.
var magic = [8]byte{'H', 'A', 'C', 'C', 'G', 'I', 'O', '1'}

// castagnoli is the CRC32-C polynomial table shared by index and block
// checksums (hardware-accelerated on all current platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type identifies a column element type.
type Type uint32

// Supported column element types.
const (
	Float32 Type = 1
	Float64 Type = 2
	Int64   Type = 3
	Uint64  Type = 4
)

// Size returns the on-disk size of one element, or 0 for an unknown type.
func (t Type) Size() int {
	switch t {
	case Float32:
		return 4
	case Float64, Int64, Uint64:
		return 8
	}
	return 0
}

func (t Type) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	}
	return fmt.Sprintf("type(%d)", uint32(t))
}

// Var is one named column of the calling rank's records. Exactly the data
// field matching Type must be set (an empty non-nil slice declares a
// zero-row column); the writer reads the slice in place, so no copy of the
// column is ever made. Different columns of one rank may have different
// lengths — particle coordinates and a per-rank counter block can share a
// container.
type Var struct {
	Name string
	Type Type
	F32  []float32
	F64  []float64
	I64  []int64
	U64  []uint64
}

// rows returns the column length for the declared type.
func (v *Var) rows() int {
	switch v.Type {
	case Float32:
		return len(v.F32)
	case Float64:
		return len(v.F64)
	case Int64:
		return len(v.I64)
	case Uint64:
		return len(v.U64)
	}
	return 0
}

// validateVars checks a writer's column declarations: known types, short
// non-empty unique names, and no data field set that contradicts Type.
func validateVars(vars []Var) error {
	if len(vars) == 0 {
		return fmt.Errorf("gio: a container needs at least one column")
	}
	if len(vars) > maxVars {
		return fmt.Errorf("gio: %d columns exceed the limit %d", len(vars), maxVars)
	}
	for i := range vars {
		v := &vars[i]
		if v.Type.Size() == 0 {
			return fmt.Errorf("gio: column %q has unknown type %d", v.Name, v.Type)
		}
		if v.Name == "" || len(v.Name) > nameSize {
			return fmt.Errorf("gio: column name %q must be 1–%d bytes", v.Name, nameSize)
		}
		for _, b := range []byte(v.Name) {
			if b == 0 {
				return fmt.Errorf("gio: column name %q contains a NUL byte", v.Name)
			}
		}
		set := 0
		if v.F32 != nil {
			set++
			if v.Type != Float32 {
				return fmt.Errorf("gio: column %q declares %v but sets F32", v.Name, v.Type)
			}
		}
		if v.F64 != nil {
			set++
			if v.Type != Float64 {
				return fmt.Errorf("gio: column %q declares %v but sets F64", v.Name, v.Type)
			}
		}
		if v.I64 != nil {
			set++
			if v.Type != Int64 {
				return fmt.Errorf("gio: column %q declares %v but sets I64", v.Name, v.Type)
			}
		}
		if v.U64 != nil {
			set++
			if v.Type != Uint64 {
				return fmt.Errorf("gio: column %q declares %v but sets U64", v.Name, v.Type)
			}
		}
		if set > 1 {
			return fmt.Errorf("gio: column %q sets %d data fields, want exactly the %v one", v.Name, set, v.Type)
		}
		for j := 0; j < i; j++ {
			if vars[j].Name == v.Name {
				return fmt.Errorf("gio: duplicate column name %q", v.Name)
			}
		}
	}
	return nil
}

// schemaHash fingerprints the declared column set (names and types, in
// order) so collective writers can verify every rank declares the same
// schema. FNV-1a.
func schemaHash(vars []Var) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := range vars {
		for _, b := range []byte(vars[i].Name) {
			mix(b)
		}
		mix(0)
		mix(byte(vars[i].Type))
	}
	return h
}

// indexSize returns the byte count of the index region (everything before
// the first data block).
func indexSize(nvars, nranks, metaLen int) int64 {
	return headerSize + int64(nvars)*varEntrySize + int64(metaLen) +
		int64(nranks)*8*int64(1+nvars)
}

// blockSize returns the on-disk size of one column block (payload + CRC
// footer).
func blockSize(rows uint64, elemSize int) uint64 {
	return rows*uint64(elemSize) + crcFooterSize
}

// encodeRange converts elements [lo,hi) of v into dst (little-endian) and
// returns the bytes written. dst must have room for (hi-lo) elements.
func encodeRange(v *Var, lo, hi int, dst []byte) int {
	switch v.Type {
	case Float32:
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint32(dst[(i-lo)*4:], math.Float32bits(v.F32[i]))
		}
		return (hi - lo) * 4
	case Float64:
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint64(dst[(i-lo)*8:], math.Float64bits(v.F64[i]))
		}
	case Int64:
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint64(dst[(i-lo)*8:], uint64(v.I64[i]))
		}
	case Uint64:
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint64(dst[(i-lo)*8:], v.U64[i])
		}
	}
	return (hi - lo) * 8
}
