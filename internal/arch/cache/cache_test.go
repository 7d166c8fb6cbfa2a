package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 2, BlockBytes: 64, HitLatency: 1})
	if c.Access(0, false, 0, -1) {
		t.Error("first access should miss")
	}
	if !c.Access(0, false, 0, -1) {
		t.Error("second access should hit")
	}
	if !c.Access(63, false, 0, -1) {
		t.Error("same block should hit")
	}
	if c.Access(64, false, 0, -1) {
		t.Error("next block should miss")
	}
	st := c.Stats
	if want := (Stats{Hits: 2, Misses: 2}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 1 set: 2 blocks capacity.
	c := New(Config{SizeBytes: 128, Ways: 2, BlockBytes: 64, HitLatency: 1})
	c.Access(0, false, 0, -1)   // A
	c.Access(64, false, 0, -1)  // B
	c.Access(0, false, 0, -1)   // touch A (B is LRU)
	c.Access(128, false, 0, -1) // C evicts B
	if !c.Access(0, false, 0, -1) {
		t.Error("A should still be resident")
	}
	if c.Access(64, false, 0, -1) {
		t.Error("B should have been evicted")
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// A working set that fits has ~zero steady-state misses; one that
	// doesn't fit keeps missing.
	cfg := Config{SizeBytes: 1 << 14, Ways: 4, BlockBytes: 64, HitLatency: 1}
	c := New(cfg)
	sweep := func(blocks int) {
		for i := 0; i < blocks; i++ {
			c.Access(uint64(i*64), false, 0, -1)
		}
	}
	fitBlocks := (1 << 14) / 64 / 2 // half capacity
	sweep(fitBlocks)
	c.Stats = Stats{}
	sweep(fitBlocks)
	if c.Stats.Misses != 0 {
		t.Errorf("fitting working set missed %d times in steady state", c.Stats.Misses)
	}
	c = New(cfg)
	over := (1 << 14) / 64 * 4 // 4x capacity
	sweep(over)
	c.Stats = Stats{}
	sweep(over)
	if ratio := float64(c.Stats.Misses) / float64(c.Stats.Hits+c.Stats.Misses); ratio < 0.9 {
		t.Errorf("thrashing sweep should keep missing: ratio %v", ratio)
	}
}

// threeBanks returns a 3-bank cache (16 sets per bank) with bank b
// dedicated to partition b.
func threeBanks() *Cache {
	c := New(Config{SizeBytes: 3 * 16 * 4 * 64, Ways: 4, BlockBytes: 64, Banks: 3, HitLatency: 1})
	for b := 0; b < 3; b++ {
		c.PartitionBanks(b, []int{b})
	}
	return c
}

func TestPartitionBanks(t *testing.T) {
	// Section 6.1's organisation: whole banks per partition. Partition
	// 1's flood must not evict partition 0's resident data, its fills
	// must stay inside its own bank, and partition 0's data stays
	// readable from every other partition.
	c := threeBanks()
	const resident = 16 * 2 // half of partition 0's bank
	const floodBase = 1 << 20
	for i := 0; i < resident; i++ {
		c.Access(uint64(i*64), false, 0, 0)
	}
	for i := 0; i < 10000; i++ {
		c.Access(uint64(floodBase+i*64), false, 0, 1)
	}
	for i, l := range c.lines {
		if l.state == invalid {
			continue
		}
		bank, flood := i/c.cfg.Ways/int(c.bankSets.n), l.tag >= floodBase/64
		if (flood && bank != 1) || (!flood && bank != 0) {
			t.Fatalf("block %#x resident in bank %d", l.tag, bank)
		}
	}
	c.Stats = Stats{}
	for i := 0; i < resident; i++ {
		c.Access(uint64(i*64), false, 0, 0)
	}
	if c.Stats.Misses != 0 {
		t.Errorf("partitioned data evicted by other partition: %d misses", c.Stats.Misses)
	}
	// "Readable but not modifiable": other partitions, and unpartitioned
	// accesses, hit partition 0's lines where they are.
	for _, part := range []int{1, 2, -1} {
		if !c.Access(0, false, 0, part) {
			t.Errorf("read under partition %d missed a block resident in partition 0", part)
		}
	}
}

func TestNoPartitionSharedEviction(t *testing.T) {
	// Control for the partition test: without partitioning the flood
	// does evict.
	c := New(Config{SizeBytes: 64 * 4 * 16, Ways: 4, BlockBytes: 64, HitLatency: 1})
	nsets := 16
	for i := 0; i < nsets*2; i++ {
		c.Access(uint64(i*64), false, 0, -1)
	}
	for i := 0; i < 10000; i++ {
		c.Access(uint64((1<<20)+i*64), false, 0, -1)
	}
	c.Stats = Stats{}
	for i := 0; i < nsets*2; i++ {
		c.Access(uint64(i*64), false, 0, -1)
	}
	if c.Stats.Misses == 0 {
		t.Error("unpartitioned flood failed to evict anything")
	}
}

func TestCoherenceInvalidations(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, HitLatency: 1})
	c.Access(0, false, 0, -1) // core 0 reads (E)
	c.Access(0, false, 1, -1) // core 1 reads
	c.Access(0, true, 1, -1)  // core 1 writes: E/S -> invalidation event
	if c.Stats.Invalidations == 0 {
		t.Error("no invalidation recorded on shared write")
	}
	// Dirty read by another core downgrades to owned, then a write by a
	// third core invalidates again.
	base := c.Stats.Invalidations
	c.Access(0, false, 2, -1)
	c.Access(0, true, 0, -1)
	if c.Stats.Invalidations <= base {
		t.Error("owned-line write did not count an invalidation")
	}
}

func TestWritebacks(t *testing.T) {
	// 1-set 1-way cache: every dirty eviction is a writeback.
	c := New(Config{SizeBytes: 64, Ways: 1, BlockBytes: 64, HitLatency: 1})
	c.Access(0, true, 0, -1)
	c.Access(64, false, 0, -1) // evicts dirty block 0
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(2, 1)
	// First touch: L1 miss + L2 miss -> 2 + 15 + 340.
	if lat := h.Access(0, 0, false, -1); lat != 357 {
		t.Errorf("cold access latency = %d, want 357", lat)
	}
	// Now in both: L1 hit -> 2.
	if lat := h.Access(0, 0, false, -1); lat != 2 {
		t.Errorf("L1 hit latency = %d, want 2", lat)
	}
	// Other core: L1 miss, L2 hit -> 2 + 15.
	if lat := h.Access(1, 0, false, -1); lat != 17 {
		t.Errorf("L2 hit latency = %d, want 17", lat)
	}
}

func TestL2BankConfig(t *testing.T) {
	cfg := L2BankMB(4)
	if cfg.SizeBytes != 4<<20 || cfg.Banks != 4 || cfg.Ways != 4 {
		t.Errorf("L2 config = %+v", cfg)
	}
	c := New(cfg)
	if c.sets.n != 4<<20/64/4 || len(c.lines) != 4<<20/64 || c.bankSets.n != 1<<20/64/4 {
		t.Errorf("%d sets of %d lines in all, %d sets a bank", c.sets.n, len(c.lines), c.bankSets.n)
	}
}

func TestMissRatioMonotoneInSize(t *testing.T) {
	// Property: for a random reference stream with reuse, a bigger cache
	// never has (meaningfully) more misses.
	r := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<16)) * 64 // 4MB footprint, reuse-heavy
	}
	var prev uint64 = ^uint64(0)
	for _, mb := range []int{1, 2, 4} {
		c := New(L2BankMB(mb))
		for _, a := range addrs {
			c.Access(a, false, 0, -1)
		}
		if c.Stats.Misses > prev {
			t.Errorf("%dMB cache missed more (%d) than smaller cache (%d)",
				mb, c.Stats.Misses, prev)
		}
		prev = c.Stats.Misses
	}
}

// TestPartitionedPrefetchDeterministic: with banks partitioned and the
// prefetcher on, the prefetcher's residency check must be the
// all-partition lookup a demand access uses — otherwise it installs a
// second copy of a block another partition holds, and which copy a later
// hit touches depends on search order.
func TestPartitionedPrefetchDeterministic(t *testing.T) {
	var want Stats
	for run := 0; run < 20; run++ {
		c := threeBanks()
		c.Prefetch = 4
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			c.Access(uint64(r.Intn(1<<10))*64, r.Intn(4) == 0, r.Intn(2), r.Intn(4)-1)
		}
		where := map[uint64]int{}
		for i, l := range c.lines {
			if l.state == invalid {
				continue
			}
			si := i / c.cfg.Ways
			if other, dup := where[l.tag]; dup {
				t.Fatalf("run %d: block %#x resident in sets %d and %d", run, l.tag, other, si)
			}
			where[l.tag] = si
		}
		if run == 0 {
			want = c.Stats
		} else if c.Stats != want {
			t.Fatalf("run %d: stats %+v, first run %+v", run, c.Stats, want)
		}
	}
}

// TestHierarchyAccessDoesNotAllocate: the simulator's innermost call
// runs tens of millions of times per sweep.
func TestHierarchyAccessDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 10000)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<18)) * 64 // 16MB footprint: misses in L1 and L2
	}
	shared := NewHierarchy(2, 3)
	banked := NewHierarchy(2, 3)
	for b := 0; b < 3; b++ {
		banked.L2.PartitionBanks(b, []int{b})
	}
	for _, tc := range []struct {
		name  string
		h     *Hierarchy
		parts int
	}{{"unpartitioned", shared, 0}, {"bank-partitioned", banked, 3}} {
		i := 0
		allocs := testing.AllocsPerRun(len(addrs), func() {
			part := -1
			if tc.parts > 0 {
				part = i % tc.parts
			}
			tc.h.Access(i&1, addrs[i%len(addrs)], i&7 == 0, part)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Hierarchy.Access, want 0", tc.name, allocs)
		}
	}
}

// TestSetIndexMatchesModulo: the mask and the multiply-high reciprocal
// give block % sets (and the bank-interleaved set under partitioning) for
// every L2 size an experiment uses and for the L1, at the boundaries of
// the reciprocal's 32-bit range and beyond it.
func TestSetIndexMatchesModulo(t *testing.T) {
	cfgs := []Config{L1D()}
	for _, mb := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 32} {
		cfgs = append(cfgs, L2BankMB(mb))
	}
	r := rand.New(rand.NewSource(11))
	for _, cfg := range cfgs {
		c := New(cfg)
		n := uint64(cfg.SizeBytes / cfg.BlockBytes / cfg.Ways)
		blocks := []uint64{0, 1, n - 1, n, n + 1, 2*n - 1, 1<<32 - n, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<58 - 1}
		for i := 0; i < 20000; i++ {
			blocks = append(blocks, uint64(r.Uint32()), r.Uint64()>>uint(r.Intn(32)))
		}
		// Partition 0 takes the upper third of the banks, as the serial
		// phases' partitions do.
		var banks []int
		for b := cfg.Banks - max(cfg.Banks/3, 1); b < cfg.Banks; b++ {
			banks = append(banks, b)
		}
		c.PartitionBanks(0, banks)
		nb, bankSets := uint64(len(banks)), n/uint64(cfg.Banks)
		for _, b := range blocks {
			if got := c.setIndex(b, -1); got != b%n {
				t.Fatalf("%d KB cache: block %#x maps to set %d, want %d", cfg.SizeBytes>>10, b, got, b%n)
			}
			want := uint64(banks[b%nb])*bankSets + b/nb%bankSets
			if got := c.setIndex(b, 0); got != want {
				t.Fatalf("%d KB cache, banks %v: block %#x maps to set %d, want %d", cfg.SizeBytes>>10, banks, b, got, want)
			}
		}
	}
}

// TestNewRefusesUnindexableConfig: a config without a complete set, or
// with a block size the shift cannot express, fails in New by name — not
// as a division by zero on the first access.
func TestNewRefusesUnindexableConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{L2BankMB(0), "no sets"},
		{Config{SizeBytes: 64, Ways: 4, BlockBytes: 64}, "no sets"},
		{Config{SizeBytes: 3 * 4 * 64, Ways: 4, BlockBytes: 64, Banks: 4}, "no sets"},
		{Config{SizeBytes: 4096, Ways: 0, BlockBytes: 64}, "no sets"},
		{Config{SizeBytes: 4096, Ways: 2, BlockBytes: 48}, "not a power of two"},
		{Config{SizeBytes: 4096, Ways: 2}, "not a power of two"},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "cache: ") || !strings.Contains(r, tc.want) {
					t.Errorf("New(%+v): %s, want a panic naming %q", tc.cfg, r, tc.want)
				}
			}()
			New(tc.cfg)
		}()
	}
}
