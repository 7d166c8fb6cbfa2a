// Package enc implements the little-endian binary encoding used by the
// world snapshot format: a growable Writer and a sticky-error Reader
// over a flat byte slice. Floats are stored as their IEEE-754 bit
// patterns so encoding is byte-stable: the same state always produces
// the same bytes, and a decode-encode round trip is the identity.
//
// Snapshot encoding is a cold path (it never runs inside Step), so the
// package favors clarity over allocation avoidance.
package enc

import (
	"encoding/binary"
	"errors"
	"math"

	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// ErrShort is returned once a Reader runs past the end of its buffer.
var ErrShort = errors.New("enc: buffer too short")

// Writer appends values to a growing byte buffer.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Vec appends the three components of a vector.
func (w *Writer) Vec(v m3.Vec) {
	w.F64(v.X)
	w.F64(v.Y)
	w.F64(v.Z)
}

// Quat appends the four components of a quaternion (W first).
func (w *Writer) Quat(q m3.Quat) {
	w.F64(q.W)
	w.F64(q.X)
	w.F64(q.Y)
	w.F64(q.Z)
}

// Mat appends a 3x3 matrix in row-major order.
func (w *Writer) Mat(m m3.Mat) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			w.F64(m.M[i][j])
		}
	}
}

// AABB appends the box's min and max corners.
func (w *Writer) AABB(b m3.AABB) {
	w.Vec(b.Min)
	w.Vec(b.Max)
}

// I32s appends a length-prefixed int32 slice.
func (w *Writer) I32s(s []int32) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.I32(v)
	}
}

// F64s appends a length-prefixed float64 slice.
func (w *Writer) F64s(s []float64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.F64(v)
	}
}

// Vecs appends a length-prefixed vector slice.
func (w *Writer) Vecs(s []m3.Vec) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.Vec(v)
	}
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes values from a byte buffer. After the first short
// read the error sticks and every subsequent read returns zero values,
// so decode sequences can run unchecked and test Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset returns the current read position.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Raw reads n bytes verbatim.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Vec reads a vector.
func (r *Reader) Vec() m3.Vec {
	var v m3.Vec
	v.X = r.F64()
	v.Y = r.F64()
	v.Z = r.F64()
	return v
}

// Quat reads a quaternion (W first).
func (r *Reader) Quat() m3.Quat {
	var q m3.Quat
	q.W = r.F64()
	q.X = r.F64()
	q.Y = r.F64()
	q.Z = r.F64()
	return q
}

// Mat reads a 3x3 matrix in row-major order.
func (r *Reader) Mat() m3.Mat {
	var m m3.Mat
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.M[i][j] = r.F64()
		}
	}
	return m
}

// AABB reads a bounding box.
func (r *Reader) AABB() m3.AABB {
	var b m3.AABB
	b.Min = r.Vec()
	b.Max = r.Vec()
	return b
}

// Count reads a length prefix, bounding it by the remaining bytes so a
// corrupt length cannot drive a huge allocation: every element of the
// snapshot encodings occupies at least one byte. On a short or
// out-of-bounds prefix it sets the sticky error and returns 0.
func (r *Reader) Count() int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining() {
		r.err = ErrShort
		return 0
	}
	return n
}

// I32s reads a length-prefixed int32 slice (nil when empty).
func (r *Reader) I32s() []int32 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = r.I32()
	}
	return s
}

// F64s reads a length-prefixed float64 slice (nil when empty).
func (r *Reader) F64s() []float64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = r.F64()
	}
	return s
}

// Vecs reads a length-prefixed vector slice (nil when empty).
func (r *Reader) Vecs() []m3.Vec {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make([]m3.Vec, n)
	for i := range s {
		s[i] = r.Vec()
	}
	return s
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if n == 0 {
		return ""
	}
	return string(r.take(n))
}
