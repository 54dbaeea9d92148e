// Package pfft implements distributed real-to-complex 3-D FFTs over the mpi
// runtime, with both the slab decomposition (HACC's first-generation FFT,
// limited to Nrank < N) and the 2-D pencil decomposition (Nrank < N², paper
// §IV-A). Transposes are pairwise exchanges inside row/column
// sub-communicators, interleaved with local 1-D FFTs, mirroring the paper's
// description.
//
// The package is plan-based. Redistributor[T] precomputes a
// layout-intersection schedule for moving data between arbitrary
// rectangular layouts: empty legs are dropped, the self overlap is a direct
// move, sends stage in a Pack that plans run one at a time may share, a
// padded layout (Layout.Pad) reads or writes a ghosted field's interior in
// place, a halo layout (Layout.Halo) makes the padding data too — ghost
// slot g holds point g mod N, planned from the periodic images of every
// source box — and every leg is a short list of runs
// (src, dst, n, stride) — n elements stored consecutively and loaded stride
// apart, a plain copy when the stride is one — instead of an index per
// element. Messages are packed in the sender's storage order (so a send is
// all copies); unpacking and the self move walk the destination's order,
// because a core overlaps the misses of strided loads but retires strided
// stores one miss at a time. Planning is local (a plan into a halo layout
// then checks its leg lengths with one all-to-all); every run
// draws its tag from the plan's own mpi.Tags and splits into Begin (pack
// and send) and End (receive and unpack in rank order, then the self
// move), and the transpose runs the same legs backwards with add. This is
// the one engine for field traffic: the FFT transposes, the block↔pencil
// moves, the IC's move into a ghosted field and grid's ghost exchange.
//
// Pencil is a plan in the FFTW sense with one path, real-to-complex
// (ForwardReal/InverseReal/ForEachKR) on the Hermitian half grid
// [n/2+1, n, n], which halves the x transforms, the transposes, and all
// downstream k-space work: NewPencil builds its four persistent transpose
// plans, per-stage scratch and pooled batched 1-D transforms once. Slices
// returned by transforms are plan-owned and valid until the next call.
package pfft
