// Package cache implements the per-SIMD texture L1 cache model: a
// set-associative, LRU-replacement cache replayed against fetch address
// traces. The micro-benchmarks' pixel-versus-compute and block-size
// effects (Figs. 7, 8, 16, 17 of the paper) are emergent properties of
// replaying the raster orders' address streams — interleaved across the
// resident wavefronts the way the SIMD's clause switching interleaves them
// — through this model.
package cache

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative LRU cache.
type Cache struct {
	lineBytes int
	ways      int
	sets      int
	// tags holds each set's ways as line address + 1 (0 marks an invalid
	// way), stored set-major and kept in MRU-to-LRU order: a hit rotates
	// the touched way to the front, a miss evicts the tail. Because every
	// access gets a unique logical timestamp, this recency ordering is
	// exactly equivalent to timestamp-based LRU — and an 8-way set probe
	// plus its bookkeeping touches a single 64-byte host cache line.
	tags []uint64

	// pow2 geometry fast path: every GPU in the suite has power-of-two
	// line sizes and set counts, turning the per-access divide and modulo
	// into a shift and a mask.
	pow2      bool
	lineShift uint
	setMask   uint64
}

// New builds a cache of totalBytes capacity with the given line size and
// associativity. Geometry must tile exactly.
func New(totalBytes, lineBytes, ways int) (*Cache, error) {
	if totalBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", totalBytes, lineBytes, ways)
	}
	if totalBytes%(lineBytes*ways) != 0 {
		return nil, fmt.Errorf("cache: %dB does not tile into %dB lines x %d ways", totalBytes, lineBytes, ways)
	}
	sets := totalBytes / (lineBytes * ways)
	c := &Cache{
		lineBytes: lineBytes,
		ways:      ways,
		sets:      sets,
		tags:      make([]uint64, sets*ways),
	}
	if isPow2(lineBytes) && isPow2(sets) {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros(uint(lineBytes)))
		c.setMask = uint64(sets - 1)
	}
	return c, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// lineOf returns the line-granular address of a byte address.
func (c *Cache) lineOf(addr uint64) uint64 {
	if c.pow2 {
		return addr >> c.lineShift
	}
	return addr / uint64(c.lineBytes)
}

// Access touches one byte address and reports whether it hit. A miss
// installs the line, evicting the set's LRU way.
func (c *Cache) Access(addr uint64) bool {
	return c.accessLine(c.lineOf(addr))
}

// accessLine touches one line-granular address. The set's ways are kept
// in MRU-to-LRU order, so a hit rotates the touched way to the front and
// a miss evicts the tail — the least recently used way, or an invalid one
// (never touched, hence at the tail) while the set is still filling. Each
// access has a unique logical time, so this is exactly LRU replacement.
func (c *Cache) accessLine(lineAddr uint64) bool {
	var set int
	if c.pow2 {
		set = int(lineAddr & c.setMask)
	} else {
		set = int(lineAddr % uint64(c.sets))
	}
	base := set * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	want := lineAddr + 1
	if tags[0] == want { // re-access of the MRU way: nothing to reorder
		return true
	}
	for i := 1; i < len(tags); i++ {
		if tags[i] == want {
			copy(tags[1:i+1], tags[:i])
			tags[0] = want
			return true
		}
	}
	copy(tags[1:], tags)
	tags[0] = want
	return false
}

// AccessRange touches every line overlapped by [addr, addr+size) and
// returns how many of those line touches hit and missed. A float4 fetch
// whose 16 bytes straddle a line boundary costs two line lookups, like the
// hardware's dual-line fetch path.
func (c *Cache) AccessRange(addr uint64, size int) (hits, misses int) {
	if size <= 0 {
		return 0, 0
	}
	first := c.lineOf(addr)
	last := c.lineOf(addr + uint64(size) - 1)
	for l := first; l <= last; l++ {
		if c.accessLine(l) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// Clone returns an independent copy of the cache: same geometry, same
// resident lines. Replay cursors snapshot their cache
// state through it — advancing the clone leaves the original untouched,
// which is what lets one stored snapshot serve many sweep points.
func (c *Cache) Clone() *Cache {
	dup := *c
	dup.tags = make([]uint64, len(c.tags))
	copy(dup.tags, c.tags)
	return &dup
}
