package gio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// container builds a healthy in-memory container for corruption tests.
func container(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTo(&buf, []byte("meta"), testVars(32, 7)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(b []byte) (*Reader, error) {
	return NewReader(bytes.NewReader(b), int64(len(b)))
}

// expectErr asserts err is non-nil and mentions want (the descriptive-error
// contract: no panics, and the message names the failure).
func expectErr(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("no error, want one mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestTruncatedContainer(t *testing.T) {
	b := container(t)
	for _, n := range []int{0, 4, headerSize - 1, headerSize + 10, len(b) / 2, len(b) - 1} {
		if _, err := openBytes(b[:n]); err == nil {
			t.Errorf("accepted container truncated to %d of %d bytes", n, len(b))
		}
	}
	_, err := openBytes(b[:len(b)-1])
	expectErr(t, err, "truncated")
}

func TestWrongMagic(t *testing.T) {
	b := container(t)
	b[0] ^= 0xff
	_, err := openBytes(b)
	expectErr(t, err, "bad magic")
}

func TestVersionMismatch(t *testing.T) {
	b := container(t)
	binary.LittleEndian.PutUint32(b[8:], Version+1)
	_, err := openBytes(b)
	expectErr(t, err, "unsupported container version")
}

func TestIndexCorruption(t *testing.T) {
	b := container(t)
	// Flip one byte inside the var table (past the header, before data).
	b[headerSize+3] ^= 0x40
	_, err := openBytes(b)
	expectErr(t, err, "index CRC mismatch")
}

func TestDataCRCFlip(t *testing.T) {
	b := container(t)
	r, err := openBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := r.blockAt(0, 0)
	b[off] ^= 0x01 // first payload byte of column "x"
	r2, err := openBytes(b)
	if err != nil {
		t.Fatal(err) // index is intact; only the block read must fail
	}
	_, err = ReadColumn[float32](r2, 0, "x", nil)
	expectErr(t, err, "CRC mismatch")
	// Other columns stay readable: corruption is isolated per block.
	if _, err := ReadColumn[uint64](r2, 0, "id", nil); err != nil {
		t.Fatalf("intact column unreadable: %v", err)
	}
}

// TestInflatedRowCount hand-corrupts the rank table to claim more rows than
// the container holds (re-sealing the index CRC so only the structural
// check can catch it) and expects a loud failure instead of over-allocation.
func TestInflatedRowCount(t *testing.T) {
	b := container(t)
	r, err := openBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	nvars := len(r.Vars())
	dataStart := indexSize(nvars, 1, len(r.Meta()))
	// Rank table entry 0: offset, then the first column's row count.
	rowsOff := dataStart - int64(8*(1+nvars)) + 8
	binary.LittleEndian.PutUint64(b[rowsOff:], 1<<50)
	// Re-seal the index CRC so the corruption looks internally consistent.
	binary.LittleEndian.PutUint32(b[40:], 0)
	crc := crc32.Checksum(b[:dataStart], castagnoli)
	binary.LittleEndian.PutUint32(b[40:], crc)
	_, err = openBytes(b)
	expectErr(t, err, "corrupt rank table")
}

func TestHeaderSizeLies(t *testing.T) {
	b := container(t)
	// Declared file size larger than reality → truncation error.
	binary.LittleEndian.PutUint64(b[32:], uint64(len(b)+100))
	binary.LittleEndian.PutUint32(b[40:], 0)
	dataStart := binary.LittleEndian.Uint64(b[24:])
	crc := crc32.Checksum(b[:dataStart], castagnoli)
	binary.LittleEndian.PutUint32(b[40:], crc)
	_, err := openBytes(b)
	expectErr(t, err, "truncated")
}

func TestGarbageInput(t *testing.T) {
	if _, err := openBytes([]byte("not a container at all, just text")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := openBytes(nil); err == nil {
		t.Error("accepted empty input")
	}
}
