// Package datapath implements the protocol data-path logic FtEngine and
// the software stack share: cuckoo-hash flow lookup, out-of-order
// reassembly bookkeeping, the RX parser that digests packets into TCP
// events, the TX packet generator, ARP resolution and ICMP echo
// (§4.1.2). The hardware engine wraps these in cycle-accurate pipeline
// models; the software stack wraps them in CPU cost accounting.
package datapath

import (
	"fmt"
	"unsafe"

	"f4t/internal/sim"
	"f4t/internal/wire"
)

// cuckooWays is the bucket associativity, matching the Xilinx HLS packet
// processing library's table the paper references [3].
const cuckooWays = 4

// maxKicks bounds displacement chains before the homeless entry falls
// into the stash.
const maxKicks = 64

// cuckooStashHigh is the stash occupancy that triggers a resize: a
// handful of parked entries is normal near the load watermark, a growing
// pile means the table is genuinely too small.
const cuckooStashHigh = 8

// cuckooInitialBuckets is the starting table size (64 slots). Tables
// declared for millions of flows start this small and double on demand,
// so a mostly-idle endpoint does not pay its worst-case footprint.
const cuckooInitialBuckets = 16

type cuckooEntry struct {
	key   wire.FourTuple
	val   uint32
	inUse bool
}

// CuckooStats describes table occupancy and lifetime behaviour.
type CuckooStats struct {
	Size      int   // resident entries (buckets + stash)
	Slots     int   // bucket slots allocated
	Stash     int   // entries currently parked in the stash
	StashPeak int   // high-water stash occupancy
	Kicks     int64 // displacement-chain evictions performed
	Stashed   int64 // displacement chains that ended in the stash
	Resizes   int64 // table doublings
	FullDrops int64 // inserts refused at the capacity bound
}

// CuckooTable maps 4-tuples to 32-bit handles (the parser stores its
// per-flow arena index) with two hash functions and
// 4-way buckets — the RX parser's flow lookup structure (§4.1.2). The
// table is growable: it starts small, doubles when occupancy crosses a
// load-factor watermark (15/16 of slots) or the stash fills, and stops
// growing at the size needed for its declared capacity. A displacement
// chain that exhausts maxKicks parks the homeless entry in the stash
// instead of dropping it, so a resident key is never silently lost;
// Insert reports false only at the capacity bound, and counts it.
type CuckooTable struct {
	buckets [][cuckooWays]cuckooEntry
	mask    uint64
	stash   []cuckooEntry
	size    int
	max     int // capacity bound (Insert refuses beyond it)
	capnb   int // bucket-count ceiling derived from max
	rng     *sim.Rand

	stashPeak int
	kicks     int64
	stashed   int64
	resizes   int64
	fullDrops int64
}

// NewCuckooTable returns a table that accepts up to n entries. Storage
// starts small and grows by doubling as flows register; the capacity
// bound n caps both growth and Len().
func NewCuckooTable(n int, seed uint64) *CuckooTable {
	if n < 1 {
		n = 1
	}
	// Bucket ceiling: enough slots that the watermark (15/16 occupancy)
	// is not crossed before n entries are resident.
	capnb := 1
	for capnb*cuckooWays*15 < n*16 {
		capnb <<= 1
	}
	nb := cuckooInitialBuckets
	if nb > capnb {
		nb = capnb
	}
	return &CuckooTable{
		buckets: make([][cuckooWays]cuckooEntry, nb),
		mask:    uint64(nb - 1),
		max:     n,
		capnb:   capnb,
		rng:     sim.NewRand(seed),
	}
}

func (c *CuckooTable) h1(k wire.FourTuple) uint64 { return k.Hash() & c.mask }
func (c *CuckooTable) h2(k wire.FourTuple) uint64 {
	h := k.Hash()
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return h & c.mask
}

// Len returns the number of stored entries.
func (c *CuckooTable) Len() int { return c.size }

// Cap returns the capacity bound Insert enforces.
func (c *CuckooTable) Cap() int { return c.max }

// Stats returns occupancy and lifetime counters.
func (c *CuckooTable) Stats() CuckooStats {
	return CuckooStats{
		Size:      c.size,
		Slots:     len(c.buckets) * cuckooWays,
		Stash:     len(c.stash),
		StashPeak: c.stashPeak,
		Kicks:     c.kicks,
		Stashed:   c.stashed,
		Resizes:   c.resizes,
		FullDrops: c.fullDrops,
	}
}

// EntryBytes returns the in-memory size of one table entry.
func (c *CuckooTable) EntryBytes() int64 { return int64(unsafe.Sizeof(cuckooEntry{})) }

// MemBytes returns the table's allocated footprint: every bucket slot
// (occupied or not) plus the stash's capacity.
func (c *CuckooTable) MemBytes() int64 {
	return int64(len(c.buckets)*cuckooWays+cap(c.stash)) * c.EntryBytes()
}

// Lookup returns the handle stored for the tuple.
func (c *CuckooTable) Lookup(k wire.FourTuple) (uint32, bool) {
	for _, b := range []uint64{c.h1(k), c.h2(k)} {
		for i := range c.buckets[b] {
			e := &c.buckets[b][i]
			if e.inUse && e.key == k {
				return e.val, true
			}
		}
	}
	for i := range c.stash {
		if c.stash[i].key == k {
			return c.stash[i].val, true
		}
	}
	return 0, false
}

// Insert adds or updates a mapping. It reports false only when the table
// is at its capacity bound (counted in Stats().FullDrops); a true return
// guarantees the key — and every previously resident key — is findable.
func (c *CuckooTable) Insert(k wire.FourTuple, v uint32) bool {
	// Update in place if present (buckets, then stash).
	for _, b := range []uint64{c.h1(k), c.h2(k)} {
		for i := range c.buckets[b] {
			e := &c.buckets[b][i]
			if e.inUse && e.key == k {
				e.val = v
				return true
			}
		}
	}
	for i := range c.stash {
		if c.stash[i].key == k {
			c.stash[i].val = v
			return true
		}
	}
	if c.size >= c.max {
		c.fullDrops++
		return false
	}
	c.size++
	c.place(cuckooEntry{key: k, val: v, inUse: true})
	if c.size*16 > len(c.buckets)*cuckooWays*15 || len(c.stash) > cuckooStashHigh {
		c.grow()
	}
	return true
}

// place stores one entry, running the displacement chain. The chain's
// final homeless entry — a victim of the kicks, not necessarily the
// argument — parks in the stash rather than being dropped.
func (c *CuckooTable) place(ent cuckooEntry) {
	for kick := 0; kick < maxKicks; kick++ {
		for _, b := range []uint64{c.h1(ent.key), c.h2(ent.key)} {
			for i := range c.buckets[b] {
				e := &c.buckets[b][i]
				if !e.inUse {
					*e = ent
					return
				}
			}
		}
		// Both buckets full: evict a random resident and re-place it.
		b := c.h1(ent.key)
		if c.rng.Bool(0.5) {
			b = c.h2(ent.key)
		}
		slot := c.rng.Intn(cuckooWays)
		ent, c.buckets[b][slot] = c.buckets[b][slot], ent
		c.kicks++
	}
	c.stash = append(c.stash, ent)
	c.stashed++
	if len(c.stash) > c.stashPeak {
		c.stashPeak = len(c.stash)
	}
}

// grow doubles the bucket array (up to the capacity-derived ceiling) and
// rehashes every resident entry, draining the stash back into buckets
// where possible.
func (c *CuckooTable) grow() {
	if len(c.buckets) >= c.capnb {
		return
	}
	old := c.buckets
	oldStash := c.stash
	nb := len(old) * 2
	c.buckets = make([][cuckooWays]cuckooEntry, nb)
	c.mask = uint64(nb - 1)
	c.stash = nil
	c.resizes++
	for bi := range old {
		for i := range old[bi] {
			if old[bi][i].inUse {
				c.place(old[bi][i])
			}
		}
	}
	for _, e := range oldStash {
		c.place(e)
	}
}

// Delete removes a mapping, reporting whether it was present.
func (c *CuckooTable) Delete(k wire.FourTuple) bool {
	for _, b := range []uint64{c.h1(k), c.h2(k)} {
		for i := range c.buckets[b] {
			e := &c.buckets[b][i]
			if e.inUse && e.key == k {
				*e = cuckooEntry{}
				c.size--
				return true
			}
		}
	}
	for i := range c.stash {
		if c.stash[i].key == k {
			last := len(c.stash) - 1
			c.stash[i] = c.stash[last]
			c.stash = c.stash[:last]
			c.size--
			return true
		}
	}
	return false
}

// String describes occupancy for diagnostics.
func (c *CuckooTable) String() string {
	return fmt.Sprintf("cuckoo{%d/%d cap %d stash %d}", c.size, len(c.buckets)*cuckooWays, c.max, len(c.stash))
}
