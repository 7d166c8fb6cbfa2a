package joint

import "github.com/parallax-arch/parallax/internal/phys/enc"

// Joint serialization for the world snapshot format: a one-byte type
// tag followed by the joint's fields. Breakable wraps its inner joint
// recursively, so its dynamic state (accumulated fatigue, broken flag)
// rides along with the configuration.

// Joint type tags in the snapshot encoding. Part of the serialized
// format; never renumber.
const (
	tagBall uint8 = iota
	tagHinge
	tagSlider
	tagFixed
	tagBreakable
	tagUnknown = uint8(255)
)

func jointTag(j Joint) uint8 {
	switch j.(type) {
	case *Ball:
		return tagBall
	case *Hinge:
		return tagHinge
	case *Slider:
		return tagSlider
	case *Fixed:
		return tagFixed
	case *Breakable:
		return tagBreakable
	}
	return tagUnknown
}

// held returns the *T that j holds or, when j holds nothing yet (a
// load), a new one that it stores in j first.
func held[T any, P interface {
	*T
	Joint
}](j *Joint) P {
	t, _ := (*j).(P)
	if t == nil {
		t = new(T)
		*j = t
	}
	return t
}

// CodeJoint codes one joint whose body indices index a list of nBodies
// bodies (-1 anchors an end to the world). Storing any Joint
// implementation from outside the package fails the codec.
func CodeJoint(c *enc.Codec, j *Joint, nBodies int) { codeJoint(c, j, nBodies, false) }

// codeJoint is CodeJoint for a joint that may be the one a Breakable
// wraps. A Breakable inside a Breakable fails where its tag is met, so
// the nesting a hostile input can ask for is one level deep.
func codeJoint(c *enc.Codec, j *Joint, nBodies int, wrapped bool) {
	bodies := func(a, b *int32) {
		c.Index(a, nBodies, true, "body A")
		c.Index(b, nBodies, true, "body B")
	}
	tag := jointTag(*j)
	c.U8(&tag)
	switch tag {
	case tagBall:
		t := held[Ball](j)
		bodies(&t.A, &t.B)
		c.Vec(&t.AnchorA)
		c.Vec(&t.AnchorB)
	case tagHinge:
		t := held[Hinge](j)
		bodies(&t.A, &t.B)
		c.Vec(&t.AnchorA)
		c.Vec(&t.AnchorB)
		c.Vec(&t.AxisA)
		c.Vec(&t.AxisB)
		c.F64(&t.SoftAnchor)
	case tagSlider:
		t := held[Slider](j)
		bodies(&t.A, &t.B)
		c.Vec(&t.AxisA)
		c.Vec(&t.RefA)
		c.Vec(&t.RefB)
		c.Quat(&t.RelRot)
	case tagFixed:
		t := held[Fixed](j)
		bodies(&t.A, &t.B)
		c.Vec(&t.AnchorA)
		c.Vec(&t.AnchorB)
		c.Quat(&t.RelRot)
	case tagBreakable:
		if wrapped {
			c.Failf("nested breakable joint")
			return
		}
		t := held[Breakable](j)
		codeJoint(c, &t.Joint, nBodies, true)
		c.F64(&t.Threshold)
		c.F64(&t.FatigueLimit)
		c.F64(&t.Fatigue)
		c.Bool(&t.Broken)
	default:
		if c.Loading() {
			c.Failf("unknown joint tag %d", tag)
		} else {
			c.Failf("cannot encode joint type %T", *j)
		}
	}
}
