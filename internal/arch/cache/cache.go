// Package cache implements the set-associative cache models used by the
// ParallAX study: multi-bank shared L2 caches built from 1 MB 4-way
// banks (paper section 5), per-core L1s, bank-granularity partitioning
// (section 6.1: whole banks dedicated to a phase) and MOESI-style
// sharing state for coherence statistics.
package cache

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
	cfg   Config
	sets  [][]line
	clock uint64
	// Prefetch enables a next-N-line prefetcher: every demand miss also
	// brings in the next Prefetch sequential blocks (the paper's future
	// work on reducing L2 size requirements via prefetching).
	Prefetch int
	// partBanks[p] lists the bank indices partition p maps into (the
	// paper's partitioning: whole 1MB banks dedicated to a phase,
	// "allocated near the CG core"). Fills of a partition with banks use
	// only those banks; a partition without any interleaves across all.
	partBanks [][]int
	bankSets  int
	Stats     Stats
}

// New builds a cache from the config.
func New(cfg Config) *Cache {
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	setsTotal := cfg.SizeBytes / cfg.BlockBytes / cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, setsTotal),
		bankSets: setsTotal / cfg.Banks,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// PartitionBanks dedicates whole banks to partition p >= 0: accesses
// tagged with p fill only into those banks. This is the paper's
// configuration — 4MB of 1MB 4-way banks per serial phase, placed near
// the CG core.
func (c *Cache) PartitionBanks(p int, banks []int) {
	for len(c.partBanks) <= p {
		c.partBanks = append(c.partBanks, nil)
	}
	c.partBanks[p] = banks
}

// setIndex maps a block to a set for partition part: the block
// interleaves across the partition's banks (all banks when the
// partition has no bank allocation).
func (c *Cache) setIndex(block uint64, part int) uint64 {
	var banks []int
	if part >= 0 && part < len(c.partBanks) {
		banks = c.partBanks[part]
	}
	if len(banks) == 0 {
		return block % uint64(len(c.sets))
	}
	bank := banks[block%uint64(len(banks))]
	setInBank := (block / uint64(len(banks))) % uint64(c.bankSets)
	return uint64(bank)*uint64(c.bankSets) + setInBank
}

// find returns the resident line holding block in set si, or nil.
func (c *Cache) find(block, si uint64) *line {
	set := c.sets[si]
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
	block := addr / uint64(c.cfg.BlockBytes)
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
	set := c.sets[si]
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
