package parallax

import (
	"fmt"
	"sync"
)

// memo caches a pure function's results by key with singleflight
// semantics: each key's value is computed exactly once, even when many
// harness goroutines ask for it at the same time — the late callers
// block on the one computation instead of repeating it. A computation
// that panics leaves no value behind: the panic passes through its
// caller, and everyone else who asks for that key, then or later,
// panics too. The zero value is ready to use.
//
// It is sound on a Workload because a captured Workload is read-only:
// nothing a model evaluation reads (World, Frame, Layout) is written
// after Capture returns, so every model entry point is a pure function
// of (workload, configuration) and the configuration alone is the key.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	// ok is set once v is: sync.Once counts a compute that panicked as
	// having run.
	ok bool
}

// get returns the value for k, calling compute for it if no caller has
// yet.
func (m *memo[K, V]) get(k K, compute func() V) V {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[K]*memoEntry[V])
	}
	e, ok := m.entries[k]
	if !ok {
		e = &memoEntry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.ok = compute(), true })
	if !e.ok {
		panic(fmt.Sprintf("parallax: the computation memoised for %+v panicked", k))
	}
	return e.v
}
