// Package cache implements the set-associative cache models used by the
// ParallAX study: multi-bank shared L2 caches built from 1 MB 4-way
// banks (paper section 5), per-core L1s, bank-granularity partitioning
// (section 6.1: whole banks dedicated to a phase) and MOESI-style
// sharing state for coherence statistics.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity per set.
	Ways int
	// BlockBytes is the line size (64 in the paper).
	BlockBytes int
	// Banks splits the cache into address-interleaved banks; sets are
	// computed per bank.
	Banks int
	// HitLatency in cycles (L1: 2, L2: 15, paper Table 5).
	HitLatency int
}

// L2BankMB assembles the paper's L2 configuration: n 1MB 4-way banks.
func L2BankMB(megabytes int) Config {
	return Config{
		SizeBytes:  megabytes << 20,
		Ways:       4,
		BlockBytes: 64,
		Banks:      megabytes, // 1MB per bank
		HitLatency: 15,
	}
}

// L1D returns the paper's 32KB 4-way 2-cycle L1 data cache.
func L1D() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, BlockBytes: 64, Banks: 1, HitLatency: 2}
}

// MESI-like line states for sharing statistics.
type state uint8

const (
	invalid state = iota
	shared
	exclusive
	modified
	owned
)

type line struct {
	tag   uint64
	state state
	// owner is the core that last wrote the line.
	owner int8
	// lastUse is the LRU timestamp.
	lastUse uint64
}

// Stats accumulates cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	// Invalidations counts coherence kills (write to a line another core
	// holds).
	Invalidations uint64
}

// Cache is a single-level set-associative cache with optional bank
// partitioning. It is a functional (hit/miss) model: latency is carried
// in the Config and charged by the timing layer.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set si is
	// lines[si*Ways : (si+1)*Ways].
	lines      []line
	blockShift uint
	sets       divisor
	clock      uint64
	// Prefetch enables a next-N-line prefetcher: every demand miss also
	// brings in the next Prefetch sequential blocks (the paper's future
	// work on reducing L2 size requirements via prefetching).
	Prefetch int
	// partBanks[p] lists the bank indices partition p maps into (the
	// paper's partitioning: whole 1MB banks dedicated to a phase,
	// "allocated near the CG core"). Fills of a partition with banks use
	// only those banks; a partition without any interleaves across all.
	partBanks []partition
	bankSets  divisor
	Stats     Stats
}

// partition is one partition's bank allocation.
type partition struct {
	banks []int
	n     divisor // len(banks)
}

// divisor divides by a fixed n >= 1 without a DIV on the access path: a
// shift and a mask when n is a power of two, else a multiply-high by
// floor(2^64/n)+1, which gives the exact quotient of any dividend below
// 2^32 (Granlund and Montgomery) — every block the layouts produce.
// Larger dividends divide.
type divisor struct {
	n     uint64
	recip uint64 // 0 when n is a power of two
	shift uint   // log2(n) when n is a power of two
}

func newDivisor(n uint64) divisor {
	if n&(n-1) == 0 {
		return divisor{n: n, shift: uint(bits.TrailingZeros64(n))}
	}
	return divisor{n: n, recip: ^uint64(0)/n + 1}
}

// divmod returns x/n and x%n.
func (d divisor) divmod(x uint64) (q, r uint64) {
	switch {
	case d.recip == 0:
		return x >> d.shift, x & (d.n - 1)
	case x>>32 == 0:
		q, _ = bits.Mul64(x, d.recip)
		return q, x - q*d.n
	}
	return x / d.n, x % d.n
}

// New builds a cache from the config. A config the model cannot index —
// a block size that is not a power of two, or no complete set (per bank,
// when banked) — is a bug in the caller and panics by name.
func New(cfg Config) *Cache {
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	if cfg.BlockBytes < 1 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: BlockBytes %d is not a power of two (%+v)", cfg.BlockBytes, cfg))
	}
	if cfg.Ways < 1 || cfg.SizeBytes/cfg.BlockBytes/cfg.Ways/cfg.Banks < 1 {
		panic(fmt.Sprintf("cache: config has no sets (%+v)", cfg))
	}
	setsTotal := cfg.SizeBytes / cfg.BlockBytes / cfg.Ways
	return &Cache{
		cfg:        cfg,
		lines:      make([]line, setsTotal*cfg.Ways),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		sets:       newDivisor(uint64(setsTotal)),
		bankSets:   newDivisor(uint64(setsTotal / cfg.Banks)),
	}
}

// PartitionBanks dedicates whole banks to partition p >= 0: accesses
// tagged with p fill only into those banks. This is the paper's
// configuration — 4MB of 1MB 4-way banks per serial phase, placed near
// the CG core.
func (c *Cache) PartitionBanks(p int, banks []int) {
	for len(c.partBanks) <= p {
		c.partBanks = append(c.partBanks, partition{})
	}
	c.partBanks[p] = partition{banks: banks, n: newDivisor(uint64(max(len(banks), 1)))}
}

// setIndex maps a block to a set for partition part: the block
// interleaves across the partition's banks (all banks when the
// partition has no bank allocation).
func (c *Cache) setIndex(block uint64, part int) uint64 {
	if part >= 0 && part < len(c.partBanks) {
		if p := &c.partBanks[part]; len(p.banks) > 0 {
			rest, bank := p.n.divmod(block)
			_, setInBank := c.bankSets.divmod(rest)
			return uint64(p.banks[bank])*c.bankSets.n + setInBank
		}
	}
	_, si := c.sets.divmod(block)
	return si
}

// set returns set si's ways.
func (c *Cache) set(si uint64) []line {
	w := uint64(c.cfg.Ways)
	return c.lines[si*w : si*w+w]
}

// find returns the resident line holding block in set si, or nil.
func (c *Cache) find(block, si uint64) *line {
	set := c.set(si)
	for w := range set {
		if l := &set[w]; l.state != invalid && l.tag == block {
			return l
		}
	}
	return nil
}

// lookup returns the resident line holding block, or nil. The cache
// stays logically shared under partitioning ("the cache space dedicated
// to the serial phases should be readable but not modifiable during
// parallel phases"): after the block's own set it searches the set the
// block maps to under every other partition, in partition-id order, and
// under no partition. Only fill placement is constrained, and fills
// follow a failed lookup, so a block is resident in at most one of them.
func (c *Cache) lookup(block, own uint64) *line {
	if l := c.find(block, own); l != nil || len(c.partBanks) == 0 {
		return l
	}
	for p := -1; p < len(c.partBanks); p++ {
		if si := c.setIndex(block, p); si != own {
			if l := c.find(block, si); l != nil {
				return l
			}
		}
	}
	return nil
}

// Access performs one reference from core (for sharing state) under
// partition part (-1 = unpartitioned) and reports whether it hit.
func (c *Cache) Access(addr uint64, write bool, core int, part int) bool {
	c.clock++
	block := addr >> c.blockShift
	si := c.setIndex(block, part)
	if l := c.lookup(block, si); l != nil {
		c.Stats.Hits++
		c.touchLine(l, write, core)
		return true
	}
	// Miss: fill, and optionally prefetch the sequential blocks that are
	// not already resident somewhere.
	c.Stats.Misses++
	c.fill(block, si, write, core)
	for i := 1; i <= c.Prefetch; i++ {
		nb := block + uint64(i)
		nsi := c.setIndex(nb, part)
		if c.lookup(nb, nsi) == nil {
			c.fill(nb, nsi, false, core)
		}
	}
	return false
}

// touchLine applies the hit-path state transitions.
func (c *Cache) touchLine(l *line, write bool, core int) {
	l.lastUse = c.clock
	if write {
		// Writing a line another core holds (or that is shared) kills
		// the other copies.
		if l.state == shared || l.state == owned || int(l.owner) != core {
			c.Stats.Invalidations++
		}
		l.state = modified
		l.owner = int8(core)
	} else if int(l.owner) != core {
		switch l.state {
		case modified:
			// Another core reads a dirty line: downgrade to owned.
			l.state = owned
		case exclusive:
			l.state = shared
		}
	}
}

// fill installs the block in set si over the first invalid way, or
// failing that the least recently used one (the earliest on a tie).
func (c *Cache) fill(block, si uint64, write bool, core int) {
	set := c.set(si)
	v := &set[0]
	for w := range set {
		l := &set[w]
		if l.state == invalid {
			v = l
			break
		}
		if l.lastUse < v.lastUse {
			v = l
		}
	}
	if v.state == modified || v.state == owned {
		c.Stats.Writebacks++
	}
	v.tag = block
	v.lastUse = c.clock
	v.owner = int8(core)
	if write {
		v.state = modified
	} else {
		v.state = exclusive
	}
}

// Hierarchy is a two-level hierarchy: per-core L1s in front of a shared
// L2, with the paper's latencies (L1 2, L2 15, memory 340 cycles).
type Hierarchy struct {
	L1s []*Cache
	L2  *Cache
	// MemLatency is the miss-to-memory penalty in cycles.
	MemLatency int
}

// NewHierarchy builds cores L1s plus a shared L2 of l2MB megabytes.
func NewHierarchy(cores, l2MB int) *Hierarchy {
	h := &Hierarchy{MemLatency: 340}
	for i := 0; i < cores; i++ {
		h.L1s = append(h.L1s, New(L1D()))
	}
	h.L2 = New(L2BankMB(l2MB))
	return h
}

// Access runs one reference from the given core through L1 then L2 and
// returns the total latency in cycles.
func (h *Hierarchy) Access(core int, addr uint64, write bool, part int) int {
	l1 := h.L1s[core]
	if l1.Access(addr, write, core, -1) {
		return l1.cfg.HitLatency
	}
	if h.L2.Access(addr, write, core, part) {
		return l1.cfg.HitLatency + h.L2.cfg.HitLatency
	}
	return l1.cfg.HitLatency + h.L2.cfg.HitLatency + h.MemLatency
}

// L2Misses returns the shared L2 miss counter.
func (h *Hierarchy) L2Misses() uint64 { return h.L2.Stats.Misses }
