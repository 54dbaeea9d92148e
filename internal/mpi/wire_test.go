package mpi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// A header declaring a 1 GiB payload with any one bit of its first 44 bytes
// flipped must fail before the payload is allocated: the header CRC at
// [40:44] is checked ahead of the allocation.
func TestFrameCorruptHeaderAllocatesNothing(t *testing.T) {
	hdr := make([]byte, FrameHeaderSize)
	putFrame(hdr, frameHeader{kind: frameData, ctx: 1, src: 1, tag: 2, dst: 0, sendNs: 42}, nil)
	binary.LittleEndian.PutUint32(hdr[28:], maxFramePayload)
	binary.LittleEndian.PutUint32(hdr[40:], crc32.Checksum(hdr[:40], castagnoli))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for bit := 0; bit < 44*8; bit++ {
		bad := append([]byte(nil), hdr...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatalf("header with bit %d flipped was accepted", bit)
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting corrupt 1 GiB headers allocated %d bytes", d)
	}
}

// decodeRaw hands an aligned payload out in place and copies one that is
// not aligned for the element type.
func TestDecodeRawInPlaceAndUnalignedCopy(t *testing.T) {
	want := []float64{1.5, -2, 3e300}
	img := asBytes(want)

	aligned := alignedBytes(len(img))
	copy(aligned, img)
	got := decodeRaw[float64](rawPayload(aligned))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aligned decode = %v, want %v", got, want)
	}
	if unsafe.Pointer(&got[0]) != unsafe.Pointer(&aligned[0]) {
		t.Fatal("aligned payload was copied, not handed out in place")
	}

	shifted := alignedBytes(len(img) + 1)[1:]
	copy(shifted, img)
	got = decodeRaw[float64](rawPayload(shifted))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unaligned decode = %v, want %v", got, want)
	}
	if uintptr(unsafe.Pointer(&got[0]))%unsafe.Alignof(got[0]) != 0 {
		t.Fatal("unaligned payload decoded to a misaligned slice")
	}
}

// Only pointer-free types aligned no wider than the receive buffers may
// cross the wire. No Go type on a current GOARCH is aligned beyond 8 bytes,
// so the over-aligned case passes its alignment explicitly.
func TestCheckWireTypeRejects(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("16-byte alignment", func() { checkWireType(reflect.TypeFor[[2]uint64](), 16) })
	mustPanic("pointer element", func() { checkWireable[*int]() })
	mustPanic("zero-size element", func() { checkWireable[struct{}]() })
	checkWireType(reflect.TypeFor[complex128](), wireAlign)
	checkWireable[struct {
		A float32
		B [3]int64
	}]()
}

// A warm 2-rank unix exchange of a 1 MiB []float64 allocates the received
// frame once: the payload reaches Recv without a second copy.
func TestWireRecvAllocatesOnce(t *testing.T) {
	const n = 1 << 17 // 1 MiB of float64
	const rounds = 8
	var perMsg uint64
	err := RunWire(2, WireOptions{Transport: "unix", Timeout: 20 * time.Second}, func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]float64, n)
		exchange := func() {
			Send(c, peer, 1, buf)
			if got := Recv[float64](c, peer, 1); len(got) != n {
				panic("short message")
			}
		}
		for i := 0; i < 3; i++ {
			exchange()
		}
		var before, after runtime.MemStats
		Barrier(c)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		Barrier(c)
		for i := 0; i < rounds; i++ {
			exchange()
		}
		Barrier(c)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perMsg = (after.TotalAlloc - before.TotalAlloc) / (2 * rounds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(11 << 20 / 10); perMsg > limit {
		t.Fatalf("%d bytes allocated per received 1 MiB message, want <= %d", perMsg, limit)
	}
}

// The kernel's granted socket send buffer is on the world's registry.
func TestWireSockBufGauge(t *testing.T) {
	for _, transport := range []string{"unix", "tcp"} {
		err := RunWire(2, WireOptions{Transport: transport, Timeout: 20 * time.Second}, func(c *Comm) {
			if v := c.World().Metrics().Gauge("wire.sockbuf_bytes").Value(); v <= 0 {
				t.Errorf("%s rank %d: wire.sockbuf_bytes = %v", transport, c.Rank(), v)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
