// Package cache implements the set-associative cache models used by the
// ParallAX study: multi-bank shared L2 caches built from 1 MB 4-way
// banks (paper section 5), per-core L1s, way-granularity partitioning
// ("columnization", references [6, 23, 27]) and MOESI-style sharing
// state for coherence statistics.
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
	// part is the partition the line was filled under (-1 = unassigned).
	part int8
	// owner is the core that last wrote the line.
	owner int8
	// prefetched marks lines brought in speculatively and not yet
	// demanded.
	prefetched bool
	// lastUse is the LRU timestamp.
	lastUse uint64
}

// Stats accumulates cache events.
type Stats struct {
	Hits   uint64
	Misses uint64
	// Cold misses: first-ever touch of a block.
	ColdMisses uint64
	Writebacks uint64
	// Invalidations counts coherence kills (write to a line another core
	// holds).
	Invalidations uint64
	// Prefetches counts lines brought in by the next-line prefetcher;
	// PrefetchHits counts demand hits on prefetched-not-yet-used lines.
	Prefetches   uint64
	PrefetchHits uint64
	// PartMisses buckets misses by partition id.
	PartMisses map[int]uint64
}

// MissRatio returns misses / accesses.
func (s *Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a single-level set-associative cache with optional way
// partitioning. It is a functional (hit/miss) model: latency is carried
// in the Config and charged by the timing layer.
type Cache struct {
	cfg       Config
	sets      [][]line
	setsShift uint
	setsMask  uint64
	bankMask  uint64
	clock     uint64
	seen      map[uint64]struct{}
	// Prefetch enables a next-N-line prefetcher: every demand miss also
	// brings in the next Prefetch sequential blocks (the paper's future
	// work on reducing L2 size requirements via prefetching).
	Prefetch int
	// partWays[p] lists the way indices partition p may fill into; nil
	// means all ways (no partitioning).
	partWays map[int][]int
	// partBanks[p] lists the bank indices partition p maps into (the
	// paper's partitioning: whole 1MB banks dedicated to a phase,
	// "allocated near the CG core"). When set for a partition, both
	// lookups and fills of that partition use only those banks.
	partBanks map[int][]int
	bankSets  int
	nBanks    int
	candBuf   []uint64
	Stats     Stats
}

// New builds a cache from the config.
func New(cfg Config) *Cache {
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	setsTotal := cfg.SizeBytes / cfg.BlockBytes / cfg.Ways
	c := &Cache{
		cfg:       cfg,
		sets:      make([][]line, setsTotal),
		seen:      make(map[uint64]struct{}),
		partWays:  make(map[int][]int),
		partBanks: make(map[int][]int),
		nBanks:    cfg.Banks,
		bankSets:  setsTotal / cfg.Banks,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
		for w := range c.sets[i] {
			c.sets[i][w].part = -1
		}
	}
	c.Stats.PartMisses = make(map[int]uint64)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Partition dedicates the given ways (indices 0..Ways-1) to partition p.
// Accesses tagged with p fill only into those ways; lookups still hit in
// any way ("the cache space dedicated to the serial phases should be
// readable but not modifiable during parallel phases").
func (c *Cache) Partition(p int, ways []int) {
	c.partWays[p] = ways
}

// PartitionBanks dedicates whole banks to partition p: accesses tagged
// with p map only into those banks. This is the paper's configuration —
// 4MB of 1MB 4-way banks per serial phase, placed near the CG core.
func (c *Cache) PartitionBanks(p int, banks []int) {
	c.partBanks[p] = banks
}

// candidates returns the distinct set indices where addr could reside:
// its own partition's set first, then every other partition's mapping
// (and the unpartitioned mapping), so cross-partition reads hit.
func (c *Cache) candidates(addr uint64, own uint64) []uint64 {
	if len(c.partBanks) == 0 {
		return []uint64{own}
	}
	out := c.candBuf[:0]
	out = append(out, own)
	add := func(si uint64) {
		for _, s := range out {
			if s == si {
				return
			}
		}
		out = append(out, si)
	}
	for p := range c.partBanks {
		add(c.setIndex(addr, p))
	}
	add(c.setIndex(addr, -1))
	c.candBuf = out
	return out
}

// touchLine applies the hit-path state transitions.
func (c *Cache) touchLine(l *line, write bool, core int) {
	l.lastUse = c.clock
	if l.prefetched {
		l.prefetched = false
		c.Stats.PrefetchHits++
	}
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

// setIndex maps an address to a set for partition part: the block
// interleaves across the partition's banks (all banks when the
// partition has no bank allocation).
func (c *Cache) setIndex(addr uint64, part int) uint64 {
	block := addr / uint64(c.cfg.BlockBytes)
	banks := c.partBanks[part]
	if len(banks) == 0 {
		return block % uint64(len(c.sets))
	}
	bank := banks[block%uint64(len(banks))]
	setInBank := (block / uint64(len(banks))) % uint64(c.bankSets)
	return uint64(bank)*uint64(c.bankSets) + setInBank
}

// Access performs one reference from core (for sharing state) under
// partition part (-1 = unpartitioned). It returns true on hit and the
// access latency contribution in cycles.
func (c *Cache) Access(addr uint64, write bool, core int, part int) bool {
	c.clock++
	block := addr / uint64(c.cfg.BlockBytes)
	si := c.setIndex(addr, part)
	// The cache stays logically shared under partitioning: lookups
	// search every partition's candidate set; only the fill placement is
	// constrained ("readable but not modifiable" across phases).
	for _, ci := range c.candidates(addr, si) {
		set := c.sets[ci]
		for w := range set {
			l := &set[w]
			if l.state != invalid && l.tag == block {
				c.Stats.Hits++
				c.touchLine(l, write, core)
				return true
			}
		}
	}
	// Miss: classify, fill, and optionally prefetch sequential blocks.
	c.Stats.Misses++
	if part >= 0 {
		c.Stats.PartMisses[part]++
	}
	if _, ok := c.seen[block]; !ok {
		c.seen[block] = struct{}{}
		c.Stats.ColdMisses++
	}
	c.fill(block, si, write, core, part, false)
	for i := 1; i <= c.Prefetch; i++ {
		nb := block + uint64(i)
		nsi := c.setIndex(nb*uint64(c.cfg.BlockBytes), part)
		if c.present(nb, nsi) {
			continue
		}
		c.fill(nb, nsi, false, core, part, true)
		c.Stats.Prefetches++
	}
	return false
}

// present reports whether a block is resident in the given set.
func (c *Cache) present(block, si uint64) bool {
	for w := range c.sets[si] {
		l := &c.sets[si][w]
		if l.state != invalid && l.tag == block {
			return true
		}
	}
	return false
}

// fill selects a victim in set si (respecting the partition's way
// allocation) and installs the block.
func (c *Cache) fill(block, si uint64, write bool, core, part int, prefetched bool) {
	set := c.sets[si]
	ways := c.partWays[part]
	victim := -1
	var oldest uint64 = ^uint64(0)
	pick := func(w int) {
		l := &set[w]
		if l.state == invalid {
			if victim == -1 || set[victim].state != invalid {
				victim = w
				oldest = 0
			}
			return
		}
		if victim == -1 || (set[victim].state != invalid && l.lastUse < oldest) {
			victim = w
			oldest = l.lastUse
		}
	}
	if ways == nil {
		for w := range set {
			pick(w)
		}
	} else {
		for _, w := range ways {
			if w >= 0 && w < len(set) {
				pick(w)
			}
		}
	}
	if victim < 0 {
		victim = 0
	}
	v := &set[victim]
	if v.state == modified || v.state == owned {
		c.Stats.Writebacks++
	}
	v.tag = block
	v.lastUse = c.clock
	v.part = int8(part)
	v.owner = int8(core)
	v.prefetched = prefetched
	if write {
		v.state = modified
	} else {
		v.state = exclusive
	}
}

// Reset clears contents and statistics but keeps the partition map.
func (c *Cache) Reset() {
	for i := range c.sets {
		for w := range c.sets[i] {
			c.sets[i][w] = line{part: -1}
		}
	}
	c.clock = 0
	c.seen = make(map[uint64]struct{})
	c.Stats = Stats{PartMisses: make(map[int]uint64)}
}

// ResetStats clears counters but keeps contents (for steady-state
// sampling).
func (c *Cache) ResetStats() {
	c.Stats = Stats{PartMisses: make(map[int]uint64)}
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
