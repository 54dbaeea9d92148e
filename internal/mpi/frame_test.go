package mpi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"hacc/internal/obs"
)

// The frame header must round-trip every field — including the negative
// reserved tags the collectives put on the wire, which cross as
// sign-extended 32-bit values, and the send timestamp packed into the slack
// that made room for it without growing FrameHeaderSize.
func TestFrameHeaderRoundTrip(t *testing.T) {
	cases := []frameHeader{
		{kind: frameData, ctx: 0, src: 0, tag: 0, dst: 0, sendNs: 0},
		{kind: frameData, ctx: 1 << 40, src: 1023, tag: 99, dst: 7, sendNs: time.Now().UnixNano()},
		{kind: frameData, ctx: -5, src: 3, tag: tagAllToAll, dst: 1, sendNs: 1},
		{kind: frameData, ctx: 2, src: 0, tag: tagBarrier, dst: 2, sendNs: 1 << 62},
		{kind: frameHello, src: 11},
		{kind: frameAbort},
		{kind: frameBye},
	}
	payload := []byte("hello wire")
	for _, want := range cases {
		var buf bytes.Buffer
		hdr := make([]byte, FrameHeaderSize)
		putFrame(hdr, want, payload)
		buf.Write(hdr)
		buf.Write(payload)
		got, p, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip changed header: got %+v want %+v", got, want)
		}
		if !bytes.Equal(p, payload) {
			t.Fatalf("round trip changed payload: %q", p)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	h := frameHeader{kind: frameData, ctx: 1, src: 1, tag: 2, dst: 0, sendNs: 42}
	payload := []byte("payload")
	hdr := make([]byte, FrameHeaderSize)
	putFrame(hdr, h, payload)

	// Flipping the timestamp must break the CRC: the latency field is
	// covered, not advisory.
	bad := append([]byte(nil), hdr...)
	bad[33] ^= 0x40
	var buf bytes.Buffer
	buf.Write(bad)
	buf.Write(payload)
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("corrupted sendNs passed the CRC")
	}
}

// A header that passes its CRC but declares far more payload than the
// stream holds must not get its declared length allocated up front: 64 MiB
// declared, then EOF, allocates one frameChunk at most.
func TestReadFrameAllocationFollowsBytes(t *testing.T) {
	hdr := make([]byte, FrameHeaderSize)
	putFrame(hdr, frameHeader{kind: frameData, ctx: 1, src: 1, tag: 3}, nil)
	binary.LittleEndian.PutUint32(hdr[28:], 64<<20)
	binary.LittleEndian.PutUint32(hdr[40:], crc32.Checksum(hdr[:40], castagnoli))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("readFrame of a header without its payload: err = %v, want EOF", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 8<<20 {
		t.Fatalf("readFrame allocated %d bytes for a 48-byte input, want < 8 MiB", grown)
	}
}

// A payload larger than frameChunk arrives whole through the growing
// buffer; one that stops partway fails with io.ErrUnexpectedEOF.
func TestReadFrameLargePayload(t *testing.T) {
	payload := make([]byte, 2*frameChunk+12345)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	hdr := make([]byte, FrameHeaderSize)
	putFrame(hdr, frameHeader{kind: frameData, ctx: 2, src: 0, tag: 5, dst: 1}, payload)
	in := append(hdr, payload...)
	_, got, err := readFrame(bytes.NewReader(in))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large payload: err %v, %d bytes back, equal %v", err, len(got), bytes.Equal(got, payload))
	}
	for _, cut := range []int{FrameHeaderSize + 1, FrameHeaderSize + frameChunk, len(in) - 1} {
		if _, _, err := readFrame(bytes.NewReader(in[:cut])); err != io.ErrUnexpectedEOF {
			t.Errorf("payload cut at byte %d: err = %v, want ErrUnexpectedEOF", cut-FrameHeaderSize, err)
		}
	}
}

// A wire exchange must feed the send→match latency histogram on the
// receiving world; the inproc path must not (no timestamp — its pins keep
// zero-alloc sends).
func TestWireLatencyRecorded(t *testing.T) {
	var mu sync.Mutex
	perRank := map[int]WireLatency{}
	err := RunWire(2, WireOptions{Timeout: 10 * time.Second}, func(c *Comm) {
		peer := 1 - c.Rank()
		Send(c, peer, 7, []int64{int64(c.Rank())})
		Recv[int64](c, peer, 7)
		if got := c.World().Metrics().Histogram("wire.latency_ns", obs.LatencyBuckets).Count(); got != 1 {
			t.Errorf("rank %d histogram count = %d, want 1", c.Rank(), got)
		}
		lat := WireLatencySummary(c)
		mu.Lock()
		perRank[c.Rank()] = lat
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, lat := range perRank {
		if lat.Count != 2 {
			t.Fatalf("rank %d merged count = %d, want 2", rank, lat.Count)
		}
		if lat.P50Ns <= 0 || lat.P99Ns < lat.P50Ns {
			t.Fatalf("rank %d merged quantiles p50=%d p99=%d", rank, lat.P50Ns, lat.P99Ns)
		}
	}
	if perRank[0] != perRank[1] {
		t.Fatalf("collective summary disagrees across ranks: %+v vs %+v", perRank[0], perRank[1])
	}
}

func TestInprocLatencyEmpty(t *testing.T) {
	err := Run(2, func(c *Comm) {
		peer := 1 - c.Rank()
		Send(c, peer, 7, []int64{1})
		Recv[int64](c, peer, 7)
		lat := WireLatencySummary(c)
		if lat.Count != 0 {
			t.Errorf("inproc world recorded %d wire latencies", lat.Count)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the socket decoder. Whatever the
// input, readFrame returns an error or a header and payload that re-encode
// to the prefix of the input they were read from; it never panics.
func FuzzReadFrame(f *testing.F) {
	frame := func(h frameHeader, payload []byte) []byte {
		hdr := make([]byte, FrameHeaderSize)
		putFrame(hdr, h, payload)
		return append(hdr, payload...)
	}
	kib := make([]byte, 1024)
	for i := range kib {
		kib[i] = byte(i * 7)
	}
	for _, in := range [][]byte{
		frame(frameHeader{kind: frameData, ctx: 3, src: 1, tag: 9, dst: 0, sendNs: 12345}, []byte("payload")),
		frame(frameHeader{kind: frameAbort}, []byte("world aborted: rank 1 failed")),
		frame(frameHeader{kind: frameHello, src: 2}, nil),
		frame(frameHeader{kind: frameBye}, nil),
		frame(frameHeader{kind: frameData, ctx: -1, tag: tagAllToAll, dst: 1}, nil),
		frame(frameHeader{kind: frameData, ctx: 1 << 40, src: 0, tag: 4, dst: 1, sendNs: 1 << 62}, kib),
	} {
		f.Add(in)
		f.Add(in[:len(in)-1])
		f.Add(in[:FrameHeaderSize/2])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, payload, err := readFrame(bytes.NewReader(in))
		if err != nil {
			return
		}
		n := FrameHeaderSize + len(payload)
		if n > len(in) {
			t.Fatalf("decoded %d bytes from a %d-byte input", n, len(in))
		}
		hdr := make([]byte, FrameHeaderSize)
		putFrame(hdr, h, payload)
		if !bytes.Equal(hdr, in[:FrameHeaderSize]) || !bytes.Equal(payload, in[FrameHeaderSize:n]) {
			t.Fatalf("frame %+v with %d-byte payload does not re-encode to its input", h, len(payload))
		}
	})
}
