package enc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// record has one field per accessor; walk is its format.
type record struct {
	u8      uint8
	u16     uint16
	u32     uint32
	u64     uint64
	i32     int32
	yes, no bool
	negZero float64
	pi      float64
	vec     m3.Vec
	quat    m3.Quat
	mat     m3.Mat
	box     m3.AABB
	iters   int
	parent  int32
	root    int32 // -1: none
	kids    []int32
	heights []float64
	verts   []m3.Vec
	raw     []byte
	label   string
	pairs   []pair
	empty   []pair
}

type pair struct {
	a, b int32
	w    float64
}

func (r *record) walk(c *Codec) {
	c.U8(&r.u8)
	c.U16(&r.u16)
	c.U32(&r.u32)
	c.U64(&r.u64)
	c.I32(&r.i32)
	c.Bool(&r.yes)
	c.Bool(&r.no)
	c.F64(&r.negZero)
	c.F64(&r.pi)
	c.Vec(&r.vec)
	c.Quat(&r.quat)
	c.Mat(&r.mat)
	c.AABB(&r.box)
	c.Int(&r.iters, 0, 1024, "iteration count")
	c.Index(&r.parent, 8, false, "parent")
	c.Index(&r.root, 8, true, "root")
	c.Indices(&r.kids, 8, true, "kid")
	c.F64s(&r.heights)
	c.Vecs(&r.verts)
	c.Bytes(&r.raw)
	c.String(&r.label)
	codePairs := func(s *[]pair) {
		Slice(c, s, 16, "pair", func(_ int, p *pair) {
			c.Index(&p.a, 8, false, "end a")
			c.Index(&p.b, 8, false, "end b")
			c.F64(&p.w)
		})
	}
	codePairs(&r.pairs)
	codePairs(&r.empty)
}

func sample() *record {
	r := &record{
		u8: 0xab, u16: 0xbeef, u32: 0xdeadbeef, u64: 0x0123456789abcdef, i32: -7,
		yes: true, negZero: math.Copysign(0, -1), pi: math.Pi,
		vec:   m3.V(1, -2, 3),
		quat:  m3.Quat{W: 0.5, X: -0.5, Y: 0.5, Z: -0.5},
		box:   m3.AABB{Min: m3.V(-1, -1, -1), Max: m3.V(2, 2, 2)},
		iters: 20, parent: 7, root: -1,
		kids:    []int32{3, -1, 4},
		heights: []float64{1.5, -2.5},
		verts:   []m3.Vec{{X: 1}, {Y: 2}},
		raw:     []byte{0, 1, 2, 255},
		label:   "hello",
		pairs:   []pair{{0, 1, 0.25}, {6, 7, -4}},
	}
	v := 1.0
	for i := range r.mat.M {
		for j := range r.mat.M[i] {
			r.mat.M[i][j] = v
			v++
		}
	}
	return r
}

func store(r *record) []byte {
	c := Store(0)
	r.walk(c)
	return c.buf
}

// TestWalkRoundTrip: one walk, run storing and then loading, reproduces
// every accessor's value — negative zero by bit pattern — consumes
// exactly what it wrote, stores the same bytes again, and storing
// leaves the walked state untouched.
func TestWalkRoundTrip(t *testing.T) {
	want := sample()
	data := store(want)
	if !reflect.DeepEqual(want, sample()) {
		t.Fatal("a storing walk changed the state it walked")
	}

	got := &record{}
	c := Load(data)
	got.walk(c)
	if err := c.End(); err != nil {
		t.Fatalf("End after a full load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if math.Float64bits(got.negZero) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("negative zero not preserved bit-exactly")
	}
	if got.empty != nil {
		t.Fatal("an empty list loaded as non-nil")
	}
	if again := store(got); string(again) != string(data) {
		t.Fatal("load then store is not the identity on the bytes")
	}

	c = Load(append(data, 0))
	got.walk(c)
	if err := c.End(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("End with an unread byte = %v", err)
	}
}

// TestTruncationFailsShort: the walk over every proper prefix of its
// own output fails with ErrShort and never panics, and a list the input
// ran out in is left nil, never partly filled.
func TestTruncationFailsShort(t *testing.T) {
	want := sample()
	data := store(want)
	for n := 0; n < len(data); n++ {
		got := &record{}
		c := Load(data[:n:n])
		got.walk(c)
		if err := c.End(); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix of %d bytes: End = %v, want ErrShort", n, err)
		}
		for _, l := range []struct{ got, want int }{
			{len(got.kids), len(want.kids)}, {len(got.heights), len(want.heights)},
			{len(got.verts), len(want.verts)}, {len(got.raw), len(want.raw)}, {len(got.pairs), len(want.pairs)},
		} {
			if l.got != 0 && l.got != l.want {
				t.Fatalf("prefix of %d bytes: a list of %d loaded %d elements: %+v", n, l.want, l.got, got)
			}
		}
	}
}

// TestStickyErrorYieldsZeroValues: after the first failure every load
// writes zero, whatever bytes remain.
func TestStickyErrorYieldsZeroValues(t *testing.T) {
	c := Load([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	u32, u64, f, b := uint32(9), uint64(9), 9.0, true
	v, s, l := m3.V(9, 9, 9), "x", []float64{9}
	c.U8(new(uint8))
	c.Failf("field %d is wrong", 1)
	c.Failf("a later failure does not replace the first")
	c.U32(&u32)
	c.U64(&u64)
	c.F64(&f)
	c.Bool(&b)
	c.Vec(&v)
	c.String(&s)
	c.F64s(&l)
	if u32 != 0 || u64 != 0 || f != 0 || b || v != (m3.Vec{}) || s != "" || l != nil {
		t.Fatalf("loads after a failure not zero-valued: %v %v %v %v %v %q %v", u32, u64, f, b, v, s, l)
	}
	if c.Remaining() != 0 {
		t.Fatalf("a failed load still has %d bytes of input", c.Remaining())
	}
	if err := c.End(); err == nil || err.Error() != "field 1 is wrong" {
		t.Fatalf("End = %v, want the first failure", err)
	}
}

// TestLenBoundsCount: a count may not exceed what the remaining bytes
// could hold at the element's least size, so the allocation it sizes is
// bounded by the input.
func TestLenBoundsCount(t *testing.T) {
	input := func(count uint32, payload int) *Codec {
		c := Store(0)
		c.U32(&count)
		c.buf = append(c.buf, make([]byte, payload)...)
		return Load(c.buf)
	}
	if n := input(3, 24).Len(0, 8); n != 3 {
		t.Fatalf("Len = %d for 3 elements of 8 in 24 bytes, want 3", n)
	}
	c := input(4, 31)
	if n := c.Len(0, 8); n != 0 || !errors.Is(c.Err(), ErrShort) {
		t.Fatalf("Len = %d, Err = %v for 4 elements of 8 in 31 bytes; want 0 and ErrShort", n, c.Err())
	}
	// A billion-element claim allocates nothing.
	c = input(1<<30, 64)
	var s []int32
	c.Indices(&s, 8, false, "entry")
	if s != nil || !errors.Is(c.Err(), ErrShort) {
		t.Fatalf("oversized count not rejected: %d elements, Err = %v", len(s), c.Err())
	}
}

// TestRangesFailByName: Int and Index reject what lies outside the
// range declared with the field, naming the field, and -1 passes only
// where none admits it.
func TestRangesFailByName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *record)
		want   string // "" loads cleanly
	}{
		{"in range", func(r *record) {}, ""},
		{"int at its bounds", func(r *record) { r.iters = 1024 }, ""},
		{"int above", func(r *record) { r.iters = 1025 }, "iteration count 1025 outside [0, 1024]"},
		{"int below", func(r *record) { r.iters = -1 }, "iteration count -1 outside [0, 1024]"},
		{"index at the length", func(r *record) { r.parent = 8 }, "parent 8 out of range (of 8)"},
		{"index -1 without none", func(r *record) { r.parent = -1 }, "parent -1 out of range (of 8)"},
		{"index -2 with none", func(r *record) { r.root = -2 }, "root -2 out of range (of 8)"},
		{"list entry", func(r *record) { r.kids[2] = 9 }, "kid 9 out of range (of 8)"},
		{"inside a slice element", func(r *record) { r.pairs[1].b = 8 }, "pair 1 end b 8 out of range (of 8)"},
	} {
		r := sample()
		tc.mutate(r)
		got := &record{}
		c := Load(store(r))
		got.walk(c)
		err := c.End()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: End = %v, want a clean load", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: End = %v, want %q", tc.name, err, tc.want)
		case tc.name == "inside a slice element" && got.pairs != nil:
			t.Errorf("%s: the failed list was left non-nil (%d elements)", tc.name, len(got.pairs))
		}
	}
}

// TestFrame: Seal closes what Begin opens and Open accepts exactly
// that; truncation, a flipped bit, another magic or version, and
// trailing payload bytes all fail under the container's name.
func TestFrame(t *testing.T) {
	const magic, version = 0x58415850, 3
	seal := func(m, v uint32, extra int) []byte {
		c := Begin(m, v, 16)
		sample().walk(c)
		c.buf = append(c.buf, make([]byte, extra)...)
		return c.Seal()
	}
	open := func(data []byte) error {
		c := Open(data, magic, version, "test: container")
		(&record{}).walk(c)
		return c.End()
	}
	good := seal(magic, version, 0)
	if err := open(good); err != nil {
		t.Fatalf("Open of a sealed container: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "test: container: truncated (0 bytes)"},
		{"header only", good[:11], "test: container: truncated (11 bytes)"},
		{"flipped bit", flipped, "test: container: checksum mismatch"},
		{"cut short", good[:len(good)-1], "test: container: checksum mismatch"},
		{"other magic", seal(magic+1, version, 0), "test: container: bad magic 58415851"},
		{"other version", seal(magic, version+1, 0), "test: container: unsupported version 4 (want 3)"},
		{"trailing bytes", seal(magic, version, 2), "test: container: 2 trailing bytes"},
	} {
		if err := open(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: End = %v, want %q", tc.name, err, tc.want)
		}
	}
}
