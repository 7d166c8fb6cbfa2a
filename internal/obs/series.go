package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"sync"
)

// ChannelID indexes a registered series channel.
type ChannelID int32

// maxSeriesChannels bounds the channel table. The staged-value array is
// fixed-size so registering a channel never moves storage the hot-path
// Set writes into.
const maxSeriesChannels = 64

// Series is a per-step time series: one power-of-two ring buffer per
// registered channel, all advancing in lockstep. The intended use is
// engine health telemetry — every World.Step stages one float64 per
// channel (Set) and then commits the whole row (Advance) from the
// serial post-step path, so recording is allocation-free and the
// resident window always holds the last-capacity steps of every
// channel.
//
// Channels come in two flavors. Plain channels (Channel) hold values
// derived deterministically from simulation state — kinetic energy,
// solver residual, island counts — and are byte-identical across thread
// counts; they feed the Prometheus exposition. Timing channels
// (TimingChannel) hold wall-clock quantities such as per-phase span
// durations; they are diagnostics only and are excluded from every
// deterministic export (they still appear in WriteJSON and flight
// bundles).
//
// Set is single-writer by contract (the stepping goroutine); Advance
// and all readers take the series mutex, so HTTP handlers may read a
// live series while the world steps.
type Series struct {
	mu     sync.Mutex
	mask   int64
	head   int64 // total steps committed; ring slot is head&mask
	names  []string
	timing []bool
	rings  [][]float64
	cur    [maxSeriesChannels]float64
}

// NewSeries returns a series whose rings hold at least capacity steps
// (rounded up to a power of two, minimum 64). A nil *Series is the
// disabled series: every method on it is a no-op.
func NewSeries(capacity int) *Series {
	size := 64
	for size < capacity {
		size *= 2
	}
	return &Series{mask: int64(size - 1)}
}

// Channel registers (or finds) a deterministic channel by name. Cold
// path: call at setup time, not per step.
func (s *Series) Channel(name string) ChannelID { return s.channel(name, false) }

// TimingChannel registers (or finds) a wall-clock channel by name. Its
// values are excluded from the deterministic Prometheus exposition.
func (s *Series) TimingChannel(name string) ChannelID { return s.channel(name, true) }

func (s *Series) channel(name string, timing bool) ChannelID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.names {
		if n == name {
			return ChannelID(i)
		}
	}
	if len(s.names) == maxSeriesChannels {
		panic("obs: too many series channels registered")
	}
	s.names = append(s.names, name)
	s.timing = append(s.timing, timing)
	s.rings = append(s.rings, make([]float64, s.mask+1))
	return ChannelID(len(s.names) - 1)
}

// Set stages a channel's value for the in-progress step. Values are
// committed — and the staging slots cleared — by the next Advance, so
// a channel not Set during a step records zero. Single-writer hot
// path: fixed-array store, no locking, no allocation.
func (s *Series) Set(id ChannelID, v float64) {
	if s == nil {
		return
	}
	s.cur[id] = v
}

// Advance commits the staged row as one completed step and clears the
// staging slots. Called once per World.Step from the serial post-step
// path; takes the mutex only to exclude concurrent readers.
func (s *Series) Advance() {
	if s == nil {
		return
	}
	s.mu.Lock()
	slot := s.head & s.mask
	for i := range s.rings {
		s.rings[i][slot] = s.cur[i]
		s.cur[i] = 0
	}
	s.head++
	s.mu.Unlock()
}

// Steps returns the total number of committed steps (monotonic; not
// bounded by the ring capacity).
func (s *Series) Steps() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// Capacity returns the ring capacity in steps (0 for a nil series).
func (s *Series) Capacity() int {
	if s == nil {
		return 0
	}
	return int(s.mask + 1)
}

// resident returns how many committed steps are still in the rings.
// Callers hold s.mu.
func (s *Series) resident() int64 {
	n := s.head
	if n > s.mask+1 {
		n = s.mask + 1
	}
	return n
}

// Names returns the registered channel names in registration order.
func (s *Series) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// Last returns the most recently committed value of a channel, and
// whether any step has been committed at all.
func (s *Series) Last(id ChannelID) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == 0 || int(id) >= len(s.rings) {
		return 0, false
	}
	return s.rings[id][(s.head-1)&s.mask], true
}

// Window appends the resident values of a channel to dst, oldest first,
// and returns the extended slice.
func (s *Series) Window(id ChannelID, dst []float64) []float64 {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.rings) {
		return dst
	}
	for i := s.head - s.resident(); i < s.head; i++ {
		dst = append(dst, s.rings[id][i&s.mask])
	}
	return dst
}

// WriteJSON writes the resident window of every channel as JSON:
//
//	{"steps":N,"first_step":F,"capacity":C,"channels":[
//	  {"name":"kinetic_energy","timing":false,"values":[...]}, ...]}
//
// Values are plain JSON numbers; non-finite samples (a NaN'd world is
// exactly when a flight bundle is dumped) are encoded as the strings
// "NaN", "+Inf" and "-Inf" so the document always parses.
func (s *Series) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s == nil {
		if _, err := bw.WriteString(`{"steps":0,"first_step":0,"capacity":0,"channels":[]}` + "\n"); err != nil {
			return err
		}
		return bw.Flush()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.resident()
	bw.WriteString(`{"steps":`)
	bw.WriteString(strconv.FormatInt(s.head, 10))
	bw.WriteString(`,"first_step":`)
	bw.WriteString(strconv.FormatInt(s.head-n, 10))
	bw.WriteString(`,"capacity":`)
	bw.WriteString(strconv.FormatInt(s.mask+1, 10))
	bw.WriteString(`,"channels":[`)
	for ci, name := range s.names {
		if ci > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n{\"name\":")
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(`,"timing":`)
		bw.WriteString(strconv.FormatBool(s.timing[ci]))
		bw.WriteString(`,"values":[`)
		for i := s.head - n; i < s.head; i++ {
			if i > s.head-n {
				bw.WriteByte(',')
			}
			writeJSONFloat(bw, s.rings[ci][i&s.mask])
		}
		bw.WriteString("]}")
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeJSONFloat writes v as a JSON number, or as a quoted string for
// the non-finite values JSON cannot represent.
func writeJSONFloat(bw *bufio.Writer, v float64) {
	switch {
	case math.IsNaN(v):
		bw.WriteString(`"NaN"`)
	case math.IsInf(v, 1):
		bw.WriteString(`"+Inf"`)
	case math.IsInf(v, -1):
		bw.WriteString(`"-Inf"`)
	default:
		bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
}
