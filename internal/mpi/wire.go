package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"sync"
	"unsafe"
)

// rawPayload is a wire-delivered message body: the raw memory image of the
// sender's slice, in a word-aligned buffer that readFrame allocated for this
// one frame and that only the matching receive ever sees. Recv/Payload hand
// it out as the receiver's []T in place (decodeRaw); both sides run the same
// binary on the same architecture, so the image is bitwise-exact — which is
// what makes a wire world bitwise-equivalent to the goroutine world.
type rawPayload []byte

// FrameHeaderSize is the fixed per-message framing overhead of the wire
// transport in bytes: magic, kind, context, source, tag, destination,
// payload length, the sender's wall-clock timestamp, a CRC-32C of those
// fields (checked before the payload is allocated), and a CRC-32C covering
// header and payload.
const FrameHeaderSize = 48

const (
	frameMagic = 0x48435731 // "HCW1"

	frameData  = 1 // point-to-point payload
	frameAbort = 2 // world abort; payload is the reason string
	frameHello = 3 // first frame on a data connection; src identifies the dialer
	frameBye   = 4 // graceful close announcement
)

// maxFramePayload bounds a frame's declared payload length. A header that
// fails its own CRC is rejected before anything is allocated; this bound
// caps what a header that passes it may ask for.
const maxFramePayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the decoded fixed-size frame prefix. dst is the world rank
// of the receiving mailbox; src is the sender's rank *within the message's
// communicator* (matching happens on comm ranks, exactly like the inproc
// mailbox path). sendNs is the sender's wall-clock time (UnixNano) at frame
// construction — wall clock, not monotonic, because monotonic readings are
// not comparable across processes; the receiver's mailbox turns
// now − sendNs into the wire send→match latency histogram. src/tag/dst fit
// in 32 bits (ranks are small; tags include small negative collective
// reserved tags) and are sign-extended through uint32 on the wire, which is
// what frees the 8 bytes for the timestamp without growing the header.
type frameHeader struct {
	kind   int
	ctx    int64
	src    int64
	tag    int64
	dst    int64
	sendNs int64
}

// putFrame encodes the header for payload into hdr (FrameHeaderSize bytes):
// the fields, the header CRC of hdr[:40] at [40:44], and the frame CRC of
// hdr[:44] and the payload at [44:48].
func putFrame(hdr []byte, h frameHeader, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(h.kind))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(h.ctx))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(h.src)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(int32(h.tag)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(int32(h.dst)))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(h.sendNs))
	binary.LittleEndian.PutUint32(hdr[40:], crc32.Checksum(hdr[:40], castagnoli))
	crc := crc32.Update(0, castagnoli, hdr[:44])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[44:], crc)
}

// readFrame reads one frame from r. The header's magic, its own CRC and the
// length bound are checked before the payload is allocated, so a corrupt
// header costs no allocation, and a valid one gets at most frameChunk bytes
// before its payload arrives (readPayload); the frame CRC over header and
// payload is checked once the payload is in. The payload is a fresh
// word-aligned buffer (alignedBytes) owned by the caller.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameHeader{}, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != frameMagic {
		return frameHeader{}, nil, fmt.Errorf("mpi: bad frame magic %#x", m)
	}
	if crc, want := crc32.Checksum(hdr[:40], castagnoli), binary.LittleEndian.Uint32(hdr[40:]); crc != want {
		return frameHeader{}, nil, fmt.Errorf("mpi: frame header CRC mismatch (got %#x want %#x)", crc, want)
	}
	h := frameHeader{
		kind:   int(binary.LittleEndian.Uint32(hdr[4:])),
		ctx:    int64(binary.LittleEndian.Uint64(hdr[8:])),
		src:    int64(int32(binary.LittleEndian.Uint32(hdr[16:]))),
		tag:    int64(int32(binary.LittleEndian.Uint32(hdr[20:]))),
		dst:    int64(int32(binary.LittleEndian.Uint32(hdr[24:]))),
		sendNs: int64(binary.LittleEndian.Uint64(hdr[32:])),
	}
	n := binary.LittleEndian.Uint32(hdr[28:])
	if n > maxFramePayload {
		return frameHeader{}, nil, fmt.Errorf("mpi: frame payload length %d exceeds limit", n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return frameHeader{}, nil, err
	}
	crc := crc32.Update(0, castagnoli, hdr[:44])
	crc = crc32.Update(crc, castagnoli, payload)
	if want := binary.LittleEndian.Uint32(hdr[44:]); crc != want {
		return frameHeader{}, nil, fmt.Errorf("mpi: frame CRC mismatch (got %#x want %#x)", crc, want)
	}
	return h, payload, nil
}

// frameChunk bounds what readPayload allocates ahead of the bytes that have
// arrived. It is the socket buffer size, so every transpose leg that fits a
// socket buffer is read into one buffer of its final length.
const frameChunk = sockBufBytes

// readPayload reads an n-byte payload into a word-aligned buffer. Up to
// frameChunk bytes it allocates the whole buffer at once; a larger payload
// starts from frameChunk bytes and doubles the buffer as bytes arrive, so a
// header that declares more than its peer sends costs at most twice what
// was sent. A stream that ends inside the payload returns io.EOF if no
// payload byte arrived and io.ErrUnexpectedEOF otherwise.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := alignedBytes(min(n, frameChunk))
	got := 0
	for {
		k, err := io.ReadFull(r, buf[got:])
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		got += k
		if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := alignedBytes(min(2*len(buf), n))
		copy(grown, buf)
		buf = grown
	}
}

// wireAlign is the alignment of every received payload: alignedBytes backs
// it with a []uint64. It bounds the alignment a wire element type may need
// (checkWireable), so decodeRaw can use the buffer as a []T in place.
const wireAlign = 8

// alignedBytes allocates n bytes starting on a wireAlign boundary.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+wireAlign-1)/wireAlign)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// sizeOf returns the exact in-memory element size, the unit of both the
// byte accounting and the wire image.
func sizeOf[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// podTypes caches which element types are plain old data (no pointers),
// keyed by reflect.Type. Only POD may cross the wire: the transport ships
// the raw memory image, and a pointer is meaningless in another process.
var podTypes sync.Map

func isPOD(t reflect.Type) bool {
	if v, ok := podTypes.Load(t); ok {
		return v.(bool)
	}
	pod := podType(t)
	podTypes.Store(t, pod)
	return pod
}

func podType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return podType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !podType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func checkWireable[T any]() {
	t := reflect.TypeFor[T]()
	checkWireType(t, t.Align())
}

// checkWireType panics unless t, whose alignment is align, can cross a wire
// transport: it must have a size (checkSized), hold no pointers, and its
// alignment must not exceed the receive buffers' wireAlign. No Go type on a
// current GOARCH is aligned beyond 8 bytes, so the last check guards the
// in-place decode against a future one.
func checkWireType(t reflect.Type, align int) {
	checkSized(t)
	if !isPOD(t) {
		panic(fmt.Sprintf("mpi: element type %v contains pointers and cannot cross a wire transport", t))
	}
	if align > wireAlign {
		panic(fmt.Sprintf("mpi: element type %v needs %d-byte alignment; wire buffers are %d-byte aligned", t, align, wireAlign))
	}
}

// checkSized panics if t has zero size (struct{}, [0]T, …). A wire frame
// carries a payload's bytes, not its element count, so a message of them
// cannot be rebuilt on the far side; every transport rejects them at Send
// so that no world delivers what another cannot.
func checkSized(t reflect.Type) {
	if t.Size() == 0 {
		panic(fmt.Sprintf("mpi: element type %v has zero size; a message of it carries no length", t))
	}
}

// asBytes reinterprets a POD slice as its raw memory image, without copying.
func asBytes[T any](buf []T) []byte {
	checkWireable[T]()
	if len(buf) == 0 {
		return nil
	}
	es := sizeOf[T]()
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)*es)
}

// decodeRaw returns a wire payload as a []T. A readFrame buffer is aligned
// for every wire element type and belongs to this one receive, so it is
// returned in place, with no second allocation or copy; a payload that is
// not aligned for T is copied into a fresh []T.
func decodeRaw[T any](raw rawPayload) []T {
	checkWireable[T]()
	es := sizeOf[T]()
	if len(raw)%es != 0 {
		panic(fmt.Sprintf("mpi: wire payload of %d bytes is not a whole number of %d-byte elements (%v)",
			len(raw), es, reflect.TypeFor[T]()))
	}
	n := len(raw) / es
	if n == 0 {
		return make([]T, 0)
	}
	var z T
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if uintptr(p)%unsafe.Alignof(z) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	copy(asBytes(out), raw)
	return out
}
