package shortrange

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns a float32 slice that fills one whole page with
// inaccessible pages on both sides, so a load even one element before its
// start or past its end faults instead of passing unnoticed.
func guardedFloats(t *testing.T) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:2*page], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), page/4)
}

// TestRangeTailStaysInsideSpan: the masked tail vector and the sub-vector
// element loads never touch memory outside their span. Spans of every short
// length sit on the first and on the last element of exactly-sized,
// guard-paged neighbor arrays; an out-of-span load would fault. Results are
// still held to the lane model.
func TestRangeTailStaysInsideSpan(t *testing.T) {
	k := NewKernel(benchPoly, 3.0, 0.01, 0.1)
	px, py, pz := guardedFloats(t), guardedFloats(t), guardedFloats(t)
	n := len(px)
	for j := 0; j < n; j++ {
		px[j] = float32(j%7) * 0.6
		py[j] = float32(j%5) * 0.7
		pz[j] = float32(j%3) * 0.9
	}
	lx, ly, lz := []float32{1.5}, []float32{1.25}, []float32{0.75}
	withBody(t, func(t *testing.T) {
		for l := 1; l <= 23; l++ {
			for _, ranges := range [][][2]int32{
				{{0, int32(l)}},
				{{int32(n - l), int32(n)}},
				{{0, int32(l)}, {int32(n - l), int32(n)}},
			} {
				want := laneModel(k, lx[0], ly[0], lz[0], px, py, pz, ranges)
				var ax, ay, az [1]float32
				k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax[:], ay[:], az[:])
				for c, g := range [3]float32{ax[0], ay[0], az[0]} {
					if math.Float32bits(g) != math.Float32bits(want[c]) {
						t.Fatalf("spans %v comp %d: body %v, lane model %v", ranges, c, g, want[c])
					}
				}
			}
		}
	})
}
