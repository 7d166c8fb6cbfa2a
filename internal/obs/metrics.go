package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// CounterID, GaugeID and HistID index pre-registered metrics. The zero
// value of each is a valid ID, so instruments hold them by value and
// guard only on the registry pointer.
type (
	CounterID int32
	GaugeID   int32
	HistID    int32
)

// Metric capacities. Values live in fixed-size arrays so registration
// — which may happen lazily, after concurrent recording of previously
// registered metrics has started — never moves a live value the way a
// slice append would. Metric names are shared (re-registration returns
// the existing ID), so the distinct-name count is small and static;
// exceeding a capacity panics at registration, the cold path.
const (
	maxCounters = 256
	// Gauges get the same headroom as counters: a serve fleet registers
	// one per shard.
	maxGauges = 256
	maxHists  = 64
)

// Registry is the typed metrics store. Registration (Counter, Gauge,
// Histogram) is mutex-protected and idempotent per name; it may run
// concurrently with recording, since the record methods index
// fixed-size arrays whose elements never move. A metric's ID must be
// fully registered before it is recorded to (publish IDs with the
// usual happens-before tools: sync.Once, channel, WaitGroup).
//
// Counters and histogram buckets are int64s updated atomically:
// integer addition commutes, so totals are identical whatever order
// concurrent workers record in, and the exposition (WriteProm) is
// deterministic across thread counts. Gauges hold float64 bits and are
// set-last-wins; use them only for configuration values that every
// writer agrees on.
type Registry struct {
	mu sync.Mutex

	counterNames []string
	counters     [maxCounters]int64

	gaugeNames []string
	gauges     [maxGauges]uint64

	histNames []string
	hists     [maxHists]hist
	// histSums accumulates the raw sum of observed values per histogram,
	// alongside the bucket counts, so the Prometheus exposition can emit
	// the required _sum family. Same commutative-integer argument as the
	// counters: thread-count deterministic.
	histSums [maxHists]int64
}

type hist struct {
	// bounds are the inclusive upper bucket bounds; counts has
	// len(bounds)+1 entries, the last being the overflow bucket.
	bounds []int64
	counts []int64
}

// NewRegistry returns an empty registry. A nil *Registry is the
// disabled registry: record methods on it are no-ops.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers (or finds) a counter by name.
func (r *Registry) Counter(name string) CounterID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.counterNames {
		if n == name {
			return CounterID(i)
		}
	}
	if len(r.counterNames) == maxCounters {
		panic("obs: too many counters registered")
	}
	r.counterNames = append(r.counterNames, name)
	return CounterID(len(r.counterNames) - 1)
}

// Gauge registers (or finds) a gauge by name.
func (r *Registry) Gauge(name string) GaugeID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.gaugeNames {
		if n == name {
			return GaugeID(i)
		}
	}
	if len(r.gaugeNames) == maxGauges {
		panic("obs: too many gauges registered")
	}
	r.gaugeNames = append(r.gaugeNames, name)
	return GaugeID(len(r.gaugeNames) - 1)
}

// Histogram registers (or finds) a fixed-bucket histogram. The bounds
// are inclusive upper limits in ascending order; one overflow bucket is
// added. Re-registering an existing name returns the existing ID and
// keeps the original bounds.
func (r *Registry) Histogram(name string, bounds []int64) HistID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.histNames {
		if n == name {
			return HistID(i)
		}
	}
	if len(r.histNames) == maxHists {
		panic("obs: too many histograms registered")
	}
	b := append([]int64(nil), bounds...)
	r.histNames = append(r.histNames, name)
	r.hists[len(r.histNames)-1] = hist{bounds: b, counts: make([]int64, len(b)+1)}
	return HistID(len(r.histNames) - 1)
}

// Add increments a counter. Safe for concurrent use.
func (r *Registry) Add(id CounterID, delta int64) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.counters[id], delta)
}

// SetGauge stores a gauge value (set-last-wins).
//
//paraxlint:noalloc
func (r *Registry) SetGauge(id GaugeID, v float64) {
	if r == nil {
		return
	}
	atomic.StoreUint64(&r.gauges[id], math.Float64bits(v))
}

// ObserveInt records one histogram sample. Bucket search is a linear
// scan over the fixed bounds — no map, no allocation.
func (r *Registry) ObserveInt(id HistID, v int64) {
	if r == nil {
		return
	}
	h := &r.hists[id]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&r.histSums[id], v)
}

// CounterValue reads a counter's current total.
func (r *Registry) CounterValue(id CounterID) int64 {
	if r == nil {
		return 0
	}
	return atomic.LoadInt64(&r.counters[id])
}
