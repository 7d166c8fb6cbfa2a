package joint

import (
	"github.com/parallax-arch/parallax/internal/phys/body"
)

// Breakable wraps a joint with a load threshold: the joint breaks when
// its applied constraint force exceeds Threshold in a single step, or
// when accumulated load exceeds FatigueLimit (accumulation of force, per
// the paper's Table 2). Bridges, cars and robots use breakable joints.
type Breakable struct {
	Joint
	// Threshold is the single-step breaking force (N); <= 0 disables.
	Threshold float64
	// FatigueLimit is the accumulated load limit (N*steps); <= 0 disables.
	FatigueLimit float64
	// Fatigue is the load accumulated so far.
	Fatigue float64
	// Broken joints contribute no rows and are dropped by the engine.
	Broken bool
}

// NewBreakable wraps j with the given breaking behaviour.
func NewBreakable(j Joint, threshold, fatigueLimit float64) *Breakable {
	return &Breakable{Joint: j, Threshold: threshold, FatigueLimit: fatigueLimit}
}

// Rows implements Joint; broken joints produce nothing.
func (b *Breakable) Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row {
	if b.Broken {
		return dst
	}
	return b.Joint.Rows(bs, p, idx, dst)
}

// NumRows implements Joint.
func (b *Breakable) NumRows() int {
	if b.Broken {
		return 0
	}
	return b.Joint.NumRows()
}

// ApplyLoad records the constraint force magnitude from one step and
// returns true if the joint just broke.
func (b *Breakable) ApplyLoad(force float64) bool {
	if b.Broken {
		return false
	}
	if b.Threshold > 0 && force > b.Threshold {
		b.Broken = true
		return true
	}
	if b.FatigueLimit > 0 {
		b.Fatigue += force
		if b.Fatigue > b.FatigueLimit {
			b.Broken = true
			return true
		}
	}
	return false
}
