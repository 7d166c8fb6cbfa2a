// Package enc implements the little-endian binary encoding of the world
// snapshot (PAXW) and recording (PAXR) formats as one two-way Codec: a
// format is a single function that names each field once, and the same
// walk appends the fields when the Codec stores and fills them when it
// loads. Floats are stored as their IEEE-754 bit patterns, so encoding
// is byte-stable: the same state always produces the same bytes, and a
// load-store round trip is the identity.
//
// What a field may hold is declared where the field is named: an index
// is coded together with the length of the list it indexes (Index,
// Indices), a bounded integer with its bounds (Int), and a count with
// the least size of the element it counts (Len, Slice), so a corrupt
// length prefix can never make a load allocate more than a small
// multiple of its input.
//
// Encoding is a cold path (it never runs inside Step).
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// ErrShort is the failure of a load that runs past the end of its
// buffer, or meets a count the bytes that remain cannot hold.
var ErrShort = errors.New("enc: buffer too short")

// Codec is one pass over an encoding, in one direction. Every accessor
// takes a pointer: storing, it appends the value and never writes
// through the pointer (a walk over live state is read-only); loading,
// it fills the value from the next bytes. The first failure sticks:
// from then on loads yield zero values and counts of zero, so a walk
// runs unchecked and its caller tests End once.
type Codec struct {
	buf  []byte
	off  int // read position when loading; the end of buf when storing (see next)
	load bool
	what string // names the container in End's errors
	err  error
}

// Store returns a Codec that appends to an empty buffer with room for
// size bytes.
func Store(size int) *Codec { return &Codec{buf: make([]byte, 0, size)} }

// Load returns a Codec that reads b.
func Load(b []byte) *Codec { return &Codec{buf: b, load: true} }

// Begin starts a framed container — magic, version, payload, CRC-32 —
// with room for a payload of size bytes; Seal closes it.
func Begin(magic, version uint32, size int) *Codec {
	c := Store(size + 12)
	c.U32(&magic)
	c.U32(&version)
	return c
}

// Seal appends the CRC-32 (IEEE) of everything stored so far and
// returns the finished container.
func (c *Codec) Seal() []byte {
	sum := crc32.ChecksumIEEE(c.buf)
	c.U32(&sum)
	return c.buf
}

// Open returns a Codec loading the payload of a framed container. A
// container that is truncated, fails its checksum, or carries another
// magic or version opens already failed. what names the container in
// End's errors.
func Open(data []byte, magic, version uint32, what string) *Codec {
	c := &Codec{load: true, what: what}
	if len(data) < 12 {
		c.Failf("truncated (%d bytes)", len(data))
		return c
	}
	n := len(data) - 4
	c.buf = data[:n]
	var m, v uint32
	c.U32(&m)
	c.U32(&v)
	if got, want := binary.LittleEndian.Uint32(data[n:]), crc32.ChecksumIEEE(data[:n]); got != want {
		c.Failf("checksum mismatch (got %08x, want %08x)", got, want)
	} else if m != magic {
		c.Failf("bad magic %08x", m)
	} else if v != version {
		c.Failf("unsupported version %d (want %d)", v, version)
	}
	return c
}

// Loading reports the direction: true when accessors fill the values
// they point at, false when they append them.
func (c *Codec) Loading() bool { return c.load }

// Remaining returns the number of unread bytes (loading); none once
// the load has failed.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// fail makes err stick unless an earlier failure already did. A failed
// load gives up the input it has not read, so that "no bytes remain"
// is the one condition every later load and count has to test.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.buf)
}

// Failf records a failure unless an earlier one already stuck.
func (c *Codec) Failf(format string, args ...any) { c.fail(fmt.Errorf(format, args...)) }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// End closes a pass: it returns the first failure or, loading, reports
// bytes the walk left unread, prefixed with the container's name.
func (c *Codec) End() error {
	if c.load && c.err == nil && c.Remaining() != 0 {
		c.Failf("%d trailing bytes", c.Remaining())
	}
	if c.err != nil && c.what != "" {
		return fmt.Errorf("%s: %w", c.what, c.err)
	}
	return c.err
}

// zero is what a load reads once its input has run out; the widest
// fixed-size field (Mat) is 72 bytes.
var zero [72]byte

// next returns the n bytes the next field occupies: the next n unread
// bytes when loading — or, when fewer than n remain, n zero bytes and
// ErrShort — and fresh room at the end of the buffer when storing. A
// storing Codec keeps off at the end of its buffer, so "n unread bytes
// remain" is false for it without a test of the direction: the
// successful load is the path a restore spends its time on, and next
// has to stay small enough to inline into every accessor.
func (c *Codec) next(n int) []byte {
	if end := c.off + n; end <= len(c.buf) {
		b := c.buf[c.off:end]
		c.off = end
		return b
	}
	if c.load {
		c.fail(ErrShort)
		return zero[:n]
	}
	c.buf = append(c.buf, make([]byte, n)...)
	c.off = len(c.buf)
	return c.buf[c.off-n:]
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if b := c.next(1); c.load {
		*p = b[0]
	} else {
		b[0] = *p
	}
}

// U16 codes a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if b := c.next(2); c.load {
		*p = binary.LittleEndian.Uint16(b)
	} else {
		binary.LittleEndian.PutUint16(b, *p)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if b := c.next(4); c.load {
		*p = binary.LittleEndian.Uint32(b)
	} else {
		binary.LittleEndian.PutUint32(b, *p)
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if b := c.next(8); c.load {
		*p = binary.LittleEndian.Uint64(b)
	} else {
		binary.LittleEndian.PutUint64(b, *p)
	}
}

// I32 codes a little-endian int32 that may hold any value. An int32
// that indexes a list or has bounds goes through Index or Int instead.
func (c *Codec) I32(p *int32) {
	if b := c.next(4); c.load {
		*p = int32(binary.LittleEndian.Uint32(b))
	} else {
		binary.LittleEndian.PutUint32(b, uint32(*p))
	}
}

// Bool codes a bool as one byte; any non-zero byte loads as true.
func (c *Codec) Bool(p *bool) {
	if b := c.next(1); c.load {
		*p = b[0] != 0
	} else if *p {
		b[0] = 1
	}
}

func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// F64 codes a float64 as its IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	if b := c.next(8); c.load {
		*p = getF64(b)
	} else {
		putF64(b, *p)
	}
}

// Vec codes the three components of a vector. Vec, Quat and Mat take
// their 24, 32 and 72 bytes under one bounds check each: restoring a
// world is mostly these.
func (c *Codec) Vec(p *m3.Vec) {
	if b := c.next(24); c.load {
		*p = m3.Vec{X: getF64(b), Y: getF64(b[8:]), Z: getF64(b[16:])}
	} else {
		putF64(b, p.X)
		putF64(b[8:], p.Y)
		putF64(b[16:], p.Z)
	}
}

// Quat codes the four components of a quaternion (W first).
func (c *Codec) Quat(p *m3.Quat) {
	if b := c.next(32); c.load {
		*p = m3.Quat{W: getF64(b), X: getF64(b[8:]), Y: getF64(b[16:]), Z: getF64(b[24:])}
	} else {
		putF64(b, p.W)
		putF64(b[8:], p.X)
		putF64(b[16:], p.Y)
		putF64(b[24:], p.Z)
	}
}

// Mat codes a 3x3 matrix in row-major order.
func (c *Codec) Mat(p *m3.Mat) {
	b := c.next(72)
	for i := range p.M {
		for j := range p.M[i] {
			if k := 8 * (3*i + j); c.load {
				p.M[i][j] = getF64(b[k:])
			} else {
				putF64(b[k:], p.M[i][j])
			}
		}
	}
}

// AABB codes a box's min and max corners.
func (c *Codec) AABB(p *m3.AABB) {
	c.Vec(&p.Min)
	c.Vec(&p.Max)
}

// Int codes an int as an int32; a load fails unless lo <= *p <= hi.
func (c *Codec) Int(p *int, lo, hi int, what string) {
	v := int32(*p)
	c.I32(&v)
	if c.load {
		*p = int(v)
		if *p < lo || *p > hi {
			c.Failf("%s %d outside [%d, %d]", what, v, lo, hi)
		}
	}
}

// Index codes an index into a list of n elements as an int32; a load
// fails unless 0 <= *p < n, or *p is -1 and none admits it.
func (c *Codec) Index(p *int32, n int, none bool, what string) {
	c.I32(p)
	if c.load && !(0 <= *p && int(*p) < n) && !(none && *p == -1) {
		c.Failf("%s %d out of range (of %d)", what, *p, n)
	}
}

// Indices codes a counted list of indices into a list of n elements.
func (c *Codec) Indices(s *[]int32, n int, none bool, what string) {
	Slice(c, s, 4, "", func(_ int, p *int32) { c.Index(p, n, none, what) })
}

// Len codes the count n of a list whose elements occupy at least
// minElemBytes each and returns the count in effect: n when storing;
// when loading, the count read, which fails with ErrShort (and reads as
// zero) if the bytes that remain could not hold that many elements.
func (c *Codec) Len(n, minElemBytes int) int {
	v := uint32(n)
	c.U32(&v)
	if !c.load {
		return n
	}
	if int64(v) > int64(c.Remaining()/minElemBytes) {
		c.fail(ErrShort)
		return 0
	}
	return int(v)
}

// Slice codes a counted list: its length through Len, then elem once
// per element in order. Loading, it makes the list (nil when empty) —
// the one place a count read from the input sizes an allocation. It
// stops at the first failure, names the element in the error (what and
// its index, unless what is empty), and leaves a list that failed to
// load nil.
func Slice[T any](c *Codec, s *[]T, minElemBytes int, what string, elem func(i int, e *T)) {
	n := c.Len(len(*s), minElemBytes)
	if c.load {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	if c.err != nil {
		return
	}
	for i := range *s {
		if elem(i, &(*s)[i]); c.err != nil {
			if what != "" {
				c.err = fmt.Errorf("%s %d %w", what, i, c.err)
			}
			if c.load {
				*s = nil
			}
			return
		}
	}
}

// Pointers is Slice for a list of pointers to elements. Loading, it
// makes the elements as well, all of them in one allocation.
func Pointers[T any](c *Codec, s *[]*T, minElemBytes int, what string, elem func(i int, e *T)) {
	var elems []T
	Slice(c, s, minElemBytes, what, func(i int, p **T) {
		if c.load {
			if elems == nil {
				elems = make([]T, len(*s))
			}
			*p = &elems[i]
		}
		elem(i, *p)
	})
}

// F64s codes a counted list of floats.
func (c *Codec) F64s(s *[]float64) {
	Slice(c, s, 8, "", func(_ int, p *float64) { c.F64(p) })
}

// Vecs codes a counted list of vectors.
func (c *Codec) Vecs(s *[]m3.Vec) {
	Slice(c, s, 24, "", func(_ int, p *m3.Vec) { c.Vec(p) })
}

// Bytes codes a counted run of raw bytes; a load copies them out of
// the input buffer.
func (c *Codec) Bytes(p *[]byte) {
	if b := c.next(c.Len(len(*p), 1)); c.load {
		*p = append([]byte(nil), b...)
	} else {
		copy(b, *p)
	}
}

// String codes a counted UTF-8 string.
func (c *Codec) String(p *string) {
	b := []byte(*p)
	if c.Bytes(&b); c.load {
		*p = string(b)
	}
}
