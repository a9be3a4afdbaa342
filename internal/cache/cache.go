// Package cache provides the generic set-associative structures every
// cache in the simulator is built from: a tag/line array with
// configurable geometry, per-set LRU, and a payload type parameter so
// the same machinery backs L1 caches, conventional L2 designs, and
// CMP-NuRAPID's pointer-carrying private tag arrays.
package cache

import (
	"fmt"
	"math"

	"cmpnurapid/internal/memsys"
)

// Line is one tag-array entry with a caller-defined payload (coherence
// state, forward pointer, reuse counters, ...). The tag and the valid
// bit share one word, key: tag+1 for a valid line and 0 for an invalid
// one, so the zero Line is invalid. lastUse is the line's LRU stamp,
// meaningful only relative to the other valid lines of its set.
type Line[T any] struct {
	key     uint64
	lastUse uint32
	Data    T
}

// Valid reports whether the line holds a block.
func (l *Line[T]) Valid() bool { return l.key != 0 }

// Geometry describes a set-associative array.
type Geometry struct {
	Sets       int
	Ways       int
	BlockBytes memsys.Bytes
}

// Validate panics unless all fields are positive powers of two (sets
// and blocks must be for indexing; ways only needs positivity but
// real designs use powers of two and requiring it catches typos).
func (g Geometry) Validate() {
	if !pow2(g.Sets) || !pow2(int(g.BlockBytes)) {
		panic(fmt.Sprintf("cache: sets (%d) and block size (%d) must be powers of two",
			g.Sets, g.BlockBytes))
	}
	if g.BlockBytes < 2 {
		// A line's key is tag+1; a tag of at most 63 bits cannot wrap.
		panic("cache: block size must be at least 2 bytes")
	}
	if g.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	if g.Ways > 64 {
		// LRUOrder tracks visited ways in a uint64 bitmask so the LRU
		// scan stays allocation-free on the per-access path.
		panic(fmt.Sprintf("cache: ways (%d) must be <= 64", g.Ways))
	}
}

// GeometryFor computes sets from capacity, associativity and block
// size.
func GeometryFor(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes) Geometry {
	sets := capacityBytes.Per(blockBytes.Times(ways))
	if sets == 0 {
		sets = 1
	}
	return Geometry{Sets: sets, Ways: ways, BlockBytes: blockBytes}
}

// CapacityBytes returns the data capacity the geometry covers.
func (g Geometry) CapacityBytes() memsys.Bytes { return g.BlockBytes.Times(g.Sets * g.Ways) }

// Array is a set-associative array of lines with per-set true LRU.
type Array[T any] struct {
	geo       Geometry
	blockBits uint
	setMask   uint64
	lines     []Line[T] // sets*ways, row-major by set
	// clock stamps each Touch. Stamps are unique within the array
	// until the clock would wrap; see renormalize.
	clock uint32
}

// NewArray allocates an array with the given geometry.
func NewArray[T any](geo Geometry) *Array[T] {
	geo.Validate()
	return &Array[T]{
		geo:       geo,
		blockBits: uint(log2(int(geo.BlockBytes))),
		setMask:   uint64(geo.Sets - 1),
		lines:     make([]Line[T], geo.Sets*geo.Ways),
	}
}

// Geometry returns the array's geometry.
func (a *Array[T]) Geometry() Geometry { return a.geo }

// SetIndex returns the set an address maps to.
func (a *Array[T]) SetIndex(addr memsys.Addr) int {
	return int((uint64(addr) >> a.blockBits) & a.setMask)
}

// keyOf returns the key a valid line holding addr carries: the tag
// (everything above the block offset; keeping the full shifted address
// keeps lookups unambiguous) plus one.
func (a *Array[T]) keyOf(addr memsys.Addr) uint64 {
	return uint64(addr)>>a.blockBits + 1
}

// Probe returns the line holding addr, or nil on a miss. It does not
// update LRU state; pair with Touch on a real access so read-only scans
// (snoops) do not perturb replacement order.
//
// hotpath:root
func (a *Array[T]) Probe(addr memsys.Addr) *Line[T] {
	key := a.keyOf(addr)
	base := a.SetIndex(addr) * a.geo.Ways
	for i := base; i < base+a.geo.Ways; i++ {
		if a.lines[i].key == key {
			return &a.lines[i]
		}
	}
	return nil
}

// Touch marks a line most-recently-used.
func (a *Array[T]) Touch(l *Line[T]) {
	if a.clock == math.MaxUint32 {
		a.renormalize()
	}
	a.clock++
	l.lastUse = a.clock
}

// renormalize rewrites every valid line's stamp as its rank (1..ways)
// among the valid lines of its set and restarts the clock at the way
// count, so the next stamp exceeds every rank. It is exact: valid
// stamps in a set are distinct (each came from its own clock tick),
// and Victim and LRUOrder read only their order within one set, which
// ranking preserves. Invalid lines get a rank too, but their stamps
// are never read.
func (a *Array[T]) renormalize() {
	for set := 0; set < a.geo.Sets; set++ {
		lines := a.Set(set)
		var ranks [64]uint32 // Validate caps ways at 64
		for i := range lines {
			for j := range lines {
				if lines[j].Valid() && lines[j].lastUse < lines[i].lastUse {
					ranks[i]++
				}
			}
		}
		for i := range lines {
			lines[i].lastUse = ranks[i] + 1
		}
	}
	a.clock = uint32(a.geo.Ways)
}

// Set returns the lines of one set (for policy code that needs to scan
// candidates, e.g. CMP-NuRAPID's invalid→private→shared victim order).
func (a *Array[T]) Set(set int) []Line[T] {
	base := set * a.geo.Ways
	return a.lines[base : base+a.geo.Ways]
}

// LRUOrder calls f for the lines of a set from least to most recently
// used, skipping invalid lines. Returning false stops the scan.
func (a *Array[T]) LRUOrder(set int, f func(*Line[T]) bool) {
	lines := a.Set(set)
	// Selection-style scan: sets are small (<= 32 ways), so O(ways^2)
	// is cheaper and simpler than maintaining a list. Visited ways live
	// in a bitmask — Validate caps ways at 64 — so the scan is
	// allocation-free on the per-access path.
	var visited uint64
	for {
		best := -1
		var bestUse uint32
		for i := range lines {
			if visited&(1<<uint(i)) != 0 || !lines[i].Valid() {
				continue
			}
			if best == -1 || lines[i].lastUse < bestUse {
				bestUse = lines[i].lastUse
				best = i
			}
		}
		if best == -1 {
			return
		}
		visited |= 1 << uint(best)
		if !f(&lines[best]) {
			return
		}
	}
}

// Victim returns the line to replace in addr's set: an invalid line if
// any, else the least recently used valid line.
func (a *Array[T]) Victim(addr memsys.Addr) *Line[T] {
	set := a.SetIndex(addr)
	lines := a.Set(set)
	var lru *Line[T]
	for i := range lines {
		l := &lines[i]
		if !l.Valid() {
			return l
		}
		if lru == nil || l.lastUse < lru.lastUse {
			lru = l
		}
	}
	return lru
}

// Install writes addr into line l, marks it valid and MRU, and returns
// l for chaining. The caller is responsible for having evicted the old
// contents (Victim hands back the line to inspect first).
func (a *Array[T]) Install(l *Line[T], addr memsys.Addr, data T) *Line[T] {
	l.key = a.keyOf(addr)
	l.Data = data
	a.Touch(l)
	return l
}

// Invalidate clears a line.
func (a *Array[T]) Invalidate(l *Line[T]) {
	var zero T
	l.key = 0
	l.Data = zero
}

// AddrOf reconstructs the block address stored in a valid line. (The
// tag keeps the full block address, so the set index is not needed.)
func (a *Array[T]) AddrOf(l *Line[T]) memsys.Addr {
	return memsys.Addr((l.key - 1) << a.blockBits)
}

// ForEach calls f for every valid line with its set index.
func (a *Array[T]) ForEach(f func(set int, l *Line[T])) {
	for i := range a.lines {
		if a.lines[i].Valid() {
			f(i/a.geo.Ways, &a.lines[i])
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array[T]) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid() {
			n++
		}
	}
	return n
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// BlockBits returns log2 of the block size: the shift from a byte
// address to its block number.
func (a *Array[T]) BlockBits() uint { return a.blockBits }
