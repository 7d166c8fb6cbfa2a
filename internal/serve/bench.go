package serve

import (
	"fmt"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// ShardBench exposes a standalone shard — no HTTP, no goroutine — so
// the root package's BenchmarkStepServe can drive the per-tick loop
// directly and the CI allocs gate can prove it allocation-free in
// steady state. Also used by white-box tests to pin the deadline state
// machine without a live ticker.
type ShardBench struct {
	sh *shard
}

// NewShardBench builds a shard holding the given worlds as sessions.
// budget is the per-session tick budget (0 disables deadlines); evict
// reports whether over-budget sessions may be evicted (benchmarks turn
// this off so the session population stays fixed while measuring).
func NewShardBench(reg *obs.Registry, budget time.Duration, evict bool, worlds ...*world.World) *ShardBench {
	tr := obs.NewTracer()
	sh := newShard(nil, 0, 1, 1, 0, budget, tr, reg, newServeCounters(reg))
	if !evict {
		sh.evictAfter = 1 << 60
	}
	for i, w := range worlds {
		sh.attach(newSession(fmt.Sprintf("b-%02d", i), "bench", 0, w, reg))
	}
	return &ShardBench{sh: sh}
}

// Tick runs one shard tick, as run() does on each ticker fire; the control
// queue is empty, so every gap's drain is one channel len.
func (b *ShardBench) Tick() { b.sh.tick() }

// States returns the per-session scheduler states in attach order.
func (b *ShardBench) States() []string {
	out := make([]string, 0, len(b.sh.sessions))
	for _, s := range b.sh.sessions {
		out = append(out, s.state.String())
	}
	return out
}

// Sessions returns the resident session count (evictions shrink it).
func (b *ShardBench) Sessions() int { return len(b.sh.sessions) }
