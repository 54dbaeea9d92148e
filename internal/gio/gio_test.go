package gio

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hacc/internal/mpi"
)

// testVars builds a deterministic multi-type column set with n records in
// the particle-like columns and a short odd-length counter column.
func testVars(n int, seed uint64) []Var {
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	u64 := make([]uint64, n)
	for i := 0; i < n; i++ {
		f32[i] = float32(seed)*0.5 + float32(i)*1.25
		f64[i] = float64(seed) + float64(i)/7
		u64[i] = seed*1e6 + uint64(i)
	}
	return []Var{
		{Name: "x", Type: Float32, F32: f32},
		{Name: "phi", Type: Float64, F64: f64},
		{Name: "id", Type: Uint64, U64: u64},
		{Name: "counters", Type: Int64, I64: []int64{int64(seed), -7, 1 << 40}},
	}
}

func checkVars(t *testing.T, r *Reader, rank int, want []Var) {
	t.Helper()
	for i := range want {
		v := &want[i]
		rows, err := r.Rows(rank, v.Name)
		if err != nil {
			t.Fatalf("Rows(%d,%q): %v", rank, v.Name, err)
		}
		if int(rows) != v.rows() {
			t.Fatalf("rank %d column %q: %d rows, want %d", rank, v.Name, rows, v.rows())
		}
		switch v.Type {
		case Float32:
			got, err := ReadColumn[float32](r, rank, v.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(v.F32[j]) {
					t.Fatalf("rank %d %q[%d] = %v want %v", rank, v.Name, j, got[j], v.F32[j])
				}
			}
		case Float64:
			got, err := ReadColumn[float64](r, rank, v.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(v.F64[j]) {
					t.Fatalf("rank %d %q[%d] = %v want %v", rank, v.Name, j, got[j], v.F64[j])
				}
			}
		case Int64:
			got, err := ReadColumn[int64](r, rank, v.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got[j] != v.I64[j] {
					t.Fatalf("rank %d %q[%d] = %v want %v", rank, v.Name, j, got[j], v.I64[j])
				}
			}
		case Uint64:
			got, err := ReadColumn[uint64](r, rank, v.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got[j] != v.U64[j] {
					t.Fatalf("rank %d %q[%d] = %v want %v", rank, v.Name, j, got[j], v.U64[j])
				}
			}
		}
	}
}

func TestSerialRoundTrip(t *testing.T) {
	vars := testVars(137, 3)
	meta := []byte("run-state blob \x00 with binary bytes")
	var buf bytes.Buffer
	if err := WriteTo(&buf, meta, vars); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRanks() != 1 {
		t.Fatalf("NumRanks = %d", r.NumRanks())
	}
	if !bytes.Equal(r.Meta(), meta) {
		t.Fatalf("meta mismatch: %q", r.Meta())
	}
	if got := len(r.Vars()); got != len(vars) {
		t.Fatalf("vars = %d want %d", got, len(vars))
	}
	checkVars(t, r, 0, vars)
}

func TestEmptyColumnsRoundTrip(t *testing.T) {
	vars := []Var{
		{Name: "x", Type: Float32, F32: []float32{}},
		{Name: "id", Type: Uint64, U64: []uint64{}},
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, nil, vars); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumn[float32](r, 0, "x", nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty column: %v, %d rows", err, len(got))
	}
}

func TestParallelRoundTrip(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		p := p
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "par.gio")
			err := mpi.Run(p, func(c *mpi.Comm) {
				w := NewWriter(c)
				var meta []byte
				if c.Rank() == 0 {
					meta = []byte("collective meta")
				}
				// Per-rank row counts differ (rank r has 10+3r records).
				if err := w.Write(path, meta, testVars(10+3*c.Rank(), uint64(c.Rank()))); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.NumRanks() != p {
				t.Fatalf("NumRanks = %d want %d", r.NumRanks(), p)
			}
			if string(r.Meta()) != "collective meta" {
				t.Fatalf("meta %q", r.Meta())
			}
			for rank := 0; rank < p; rank++ {
				checkVars(t, r, rank, testVars(10+3*rank, uint64(rank)))
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temporary file left behind: %v", err)
			}
		})
	}
}

// TestSerialMatchesParallelSingleRank pins the contract that WriteTo and a
// one-rank collective Write produce byte-identical containers.
func TestSerialMatchesParallelSingleRank(t *testing.T) {
	vars := testVars(64, 5)
	meta := []byte("m")
	var buf bytes.Buffer
	if err := WriteTo(&buf, meta, vars); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "one.gio")
	err := mpi.Run(1, func(c *mpi.Comm) {
		if err := NewWriter(c).Write(path, meta, vars); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatalf("serial (%d bytes) and 1-rank collective (%d bytes) containers differ", buf.Len(), len(disk))
	}
}

// TestWriterReuse pins that a warm Writer produces correct containers on
// repeated collective writes (the checkpoint cadence path).
func TestWriterReuse(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(4, func(c *mpi.Comm) {
		w := NewWriter(c)
		for it := 0; it < 3; it++ {
			path := filepath.Join(dir, fmt.Sprintf("it%d.gio", it))
			if err := w.Write(path, []byte{byte(it)}, testVars(20+it, uint64(c.Rank()+it))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		r, err := Open(filepath.Join(dir, fmt.Sprintf("it%d.gio", it)))
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < 4; rank++ {
			checkVars(t, r, rank, testVars(20+it, uint64(rank+it)))
		}
		r.Close()
	}
}

func TestInvalidVarsRejected(t *testing.T) {
	cases := []struct {
		name string
		vars []Var
	}{
		{"empty set", nil},
		{"unknown type", []Var{{Name: "x", Type: Type(99)}}},
		{"empty name", []Var{{Name: "", Type: Float32}}},
		{"long name", []Var{{Name: "xxxxxxxxxxxxxxxxxxxxxxxxx", Type: Float32}}},
		{"nul in name", []Var{{Name: "a\x00b", Type: Float32}}},
		{"duplicate name", []Var{{Name: "x", Type: Float32}, {Name: "x", Type: Float64}}},
		{"wrong field", []Var{{Name: "x", Type: Float32, F64: []float64{1}}}},
		{"two fields", []Var{{Name: "x", Type: Float32, F32: []float32{1}, U64: []uint64{1}}}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteTo(&buf, nil, tc.vars); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSchemaMismatchAcrossRanks pins that a collective write where ranks
// declare different schemas fails consistently on every rank without
// touching the target path.
func TestSchemaMismatchAcrossRanks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gio")
	err := mpi.Run(2, func(c *mpi.Comm) {
		name := "x"
		if c.Rank() == 1 {
			name = "y"
		}
		err := NewWriter(c).Write(path, nil, []Var{{Name: name, Type: Float32, F32: []float32{1}}})
		if err == nil {
			panic("schema mismatch accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left a container behind: %v", err)
	}
}

// TestInvalidRankRejectedCollectively pins that one rank's invalid columns
// fail the whole collective write with an error on every rank.
func TestInvalidRankRejectedCollectively(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gio")
	errs := make([]error, 2)
	err := mpi.Run(2, func(c *mpi.Comm) {
		vars := []Var{{Name: "x", Type: Float32, F32: []float32{1}}}
		if c.Rank() == 1 {
			vars[0].Type = Type(42)
		}
		errs[c.Rank()] = NewWriter(c).Write(path, nil, vars)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e == nil {
			t.Errorf("rank %d accepted a collectively-invalid write", r)
		}
	}
}

func TestReadColumnTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, nil, testVars(4, 0)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadColumn[float64](r, 0, "x", nil); err == nil {
		t.Error("float64 read of a float32 column accepted")
	}
	if _, err := ReadColumn[float32](r, 0, "nope", nil); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := ReadColumn[float32](r, 2, "x", nil); err == nil {
		t.Error("out-of-range rank accepted")
	}
}
