// Package nurapid implements the uniprocessor NuRAPID cache [8]
// ("Non-uniform access with Replacement And Placement usIng Distance
// associativity") that CMP-NuRAPID extends. It is both a substrate —
// the CMP design inherits its sequential tag-data access, d-groups,
// forward/reverse pointers, and promotion/demotion machinery — and a
// reference model the tests compare mechanisms against.
//
// Key ideas reproduced from [8] (paper §2.1):
//
//   - Sequential tag-data access: the tag array is probed first; the
//     forward pointer stored in the matching tag entry pinpoints the
//     data frame, so data placement is decoupled from set-associative
//     way number ("distance associativity").
//   - The data array is divided into large d-groups, each with a single
//     uniform access latency; frequently-accessed blocks are promoted
//     to closer d-groups, and replacement demotes blocks to farther
//     d-groups instead of evicting them.
//   - Each data frame carries a reverse pointer to its tag entry so a
//     demoted block's forward pointer can be updated.
package nurapid

import (
	"fmt"

	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
)

// PromotionPolicy selects how a block moves toward the processor on
// reuse (§3.3.1 and [8] §4).
type PromotionPolicy int

const (
	// NextFastest promotes one d-group closer per reuse ([8]'s best
	// uniprocessor policy).
	NextFastest PromotionPolicy = iota
	// Fastest promotes straight to the closest d-group (the CMP
	// paper's preferred policy, §3.3.1).
	Fastest
	// NoPromotion leaves blocks where they land (for ablation).
	NoPromotion
)

func (p PromotionPolicy) String() string {
	switch p {
	case NextFastest:
		return "next-fastest"
	case Fastest:
		return "fastest"
	case NoPromotion:
		return "none"
	}
	return fmt.Sprintf("PromotionPolicy(%d)", int(p))
}

// DGroupConfig sizes one distance group.
type DGroupConfig struct {
	Frames  int           // number of block frames
	Latency memsys.Cycles // uniform access latency in cycles
}

// Config describes a NuRAPID cache.
type Config struct {
	Sets       int
	Ways       int
	BlockBytes memsys.Bytes
	TagLatency memsys.Cycles
	MemLatency memsys.Cycles
	DGroups    []DGroupConfig
	Promotion  PromotionPolicy
	Seed       uint64
}

// DefaultConfig returns an 8 MB, 8-way NuRAPID with four 2 MB d-groups
// at the latencies of the paper's Table 1 (6/20/20/33 cycles seen from
// the single processor, nearest first) and a 300-cycle memory.
func DefaultConfig() Config {
	const blockBytes = 128
	frames := (2 << 20) / blockBytes
	return Config{
		Sets:       (8 << 20) / (blockBytes * 8),
		Ways:       8,
		BlockBytes: blockBytes,
		TagLatency: 4,
		MemLatency: 300,
		DGroups: []DGroupConfig{
			{Frames: frames, Latency: 6},
			{Frames: frames, Latency: 20},
			{Frames: frames, Latency: 20},
			{Frames: frames, Latency: 33},
		},
		Promotion: NextFastest,
		Seed:      1,
	}
}

// ptr is a forward pointer: which frame in which d-group holds a block.
type ptr struct {
	dgroup int
	frame  int
}

// tagData is the payload of one tag entry.
type tagData struct {
	fwd ptr
}

// frame is one data-array frame; rev is the reverse pointer.
type frame struct {
	valid bool
	rev   *cache.Line[tagData]
}

type dgroup struct {
	latency memsys.Cycles
	frames  []frame
	free    []int // indices of invalid frames
	used    int
}

// Stats accumulates NuRAPID measurements.
type Stats struct {
	Hits       uint64
	Misses     uint64
	HitsByDG   []uint64
	Promotions uint64
	Demotions  uint64
	Evictions  uint64
}

// Cache is a uniprocessor NuRAPID cache.
type Cache struct {
	cfg     Config
	tags    *cache.Array[tagData]
	dgroups []*dgroup
	rand    *rng.Source
	stats   Stats
}

// New builds a NuRAPID cache. The total frame count must equal the tag
// entry count: in the uniprocessor design tags and frames are 1:1, so
// an invalid tag entry exists exactly when a free frame exists.
func New(cfg Config) *Cache {
	if len(cfg.DGroups) == 0 {
		panic("nurapid: no d-groups")
	}
	totalFrames := 0
	for _, d := range cfg.DGroups {
		totalFrames += d.Frames
	}
	if totalFrames != cfg.Sets*cfg.Ways {
		panic(fmt.Sprintf("nurapid: %d frames != %d tag entries", totalFrames, cfg.Sets*cfg.Ways))
	}
	c := &Cache{
		cfg:  cfg,
		tags: cache.NewArray[tagData](cache.Geometry{Sets: cfg.Sets, Ways: cfg.Ways, BlockBytes: cfg.BlockBytes}),
		rand: rng.New(cfg.Seed),
	}
	for _, dc := range cfg.DGroups {
		dg := &dgroup{latency: dc.Latency, frames: make([]frame, dc.Frames)}
		dg.free = make([]int, dc.Frames)
		for i := range dg.free {
			dg.free[i] = dc.Frames - 1 - i // pop from the end -> ascending use
		}
		c.dgroups = append(c.dgroups, dg)
	}
	c.stats.HitsByDG = make([]uint64, len(cfg.DGroups))
	return c
}

// Stats returns the accumulated measurements.
func (c *Cache) Stats() Stats { return c.stats }

// Access performs one reference and returns the total latency in
// cycles and whether it hit. NuRAPID is a uniprocessor cache: there is
// no coherence, and writes behave like reads for placement purposes.
//
// hotpath:root
func (c *Cache) Access(addr memsys.Addr) (latency memsys.Cycles, hit bool) {
	addr = addr.BlockAddr(c.cfg.BlockBytes)
	latency = c.cfg.TagLatency

	if line := c.tags.Probe(addr); line != nil {
		c.tags.Touch(line)
		dg := line.Data.fwd.dgroup
		latency += c.dgroups[dg].latency
		c.stats.Hits++
		c.stats.HitsByDG[dg]++
		c.promote(line)
		return latency, true
	}

	// Miss: data replacement (evict the tag victim, freeing its frame),
	// then place the new block in the closest d-group, demoting a chain
	// of blocks toward the freed frame.
	c.stats.Misses++
	latency += c.cfg.MemLatency

	victim := c.tags.Victim(addr)
	freedDG := -1
	if victim.Valid() {
		p := victim.Data.fwd
		c.releaseFrame(p)
		freedDG = p.dgroup
		c.stats.Evictions++
		c.tags.Invalidate(victim)
	}
	target := c.dgroupWithFreeFrame(freedDG)
	c.makeRoomInClosest(target)
	f := c.takeFrame(0)
	c.tags.Install(victim, addr, tagData{fwd: ptr{dgroup: 0, frame: f}})
	c.dgroups[0].frames[f] = frame{valid: true, rev: victim}
	return latency, false
}

// promote applies the configured promotion policy to a block that hit
// in a non-closest d-group.
func (c *Cache) promote(line *cache.Line[tagData]) {
	cur := line.Data.fwd.dgroup
	if cur == 0 || c.cfg.Promotion == NoPromotion {
		return
	}
	target := 0
	if c.cfg.Promotion == NextFastest {
		target = cur - 1
	}
	c.moveBlock(line, target)
	c.stats.Promotions++
}

// moveBlock moves line's data to d-group target by swapping with a
// random victim there (or taking a free frame).
func (c *Cache) moveBlock(line *cache.Line[tagData], target int) {
	from := line.Data.fwd
	dg := c.dgroups[target]
	if len(dg.free) > 0 {
		to := c.takeFrame(target)
		c.releaseFrame(from)
		c.placeAt(line, ptr{target, to})
		return
	}
	// Swap with a random victim in the target d-group (demoting it to
	// the promoted block's old frame).
	vi := c.rand.Intn(len(dg.frames))
	victimRev := dg.frames[vi].rev
	c.placeAt(victimRev, from)
	c.placeAt(line, ptr{target, vi})
	c.stats.Demotions++
}

// placeAt points tag entry line at p and fixes p's reverse pointer.
func (c *Cache) placeAt(line *cache.Line[tagData], p ptr) {
	line.Data.fwd = p
	c.dgroups[p.dgroup].frames[p.frame] = frame{valid: true, rev: line}
}

// dgroupWithFreeFrame returns freedDG when valid, else the nearest
// d-group holding a free frame.
func (c *Cache) dgroupWithFreeFrame(freedDG int) int {
	if freedDG >= 0 {
		return freedDG
	}
	for i, dg := range c.dgroups {
		if len(dg.free) > 0 {
			return i
		}
	}
	panic("nurapid: no free frame anywhere despite invalid tag (tag/frame accounting broken)")
}

// makeRoomInClosest demotes a chain of random victims from d-group 0
// toward target so a free frame ends up in d-group 0. This is [8]'s
// distance replacement to a specific d-group: repeated demotions from
// each d-group to the next-fastest until the freed frame is reached.
func (c *Cache) makeRoomInClosest(target int) {
	for g := target; g > 0; g-- {
		// Move a random block from d-group g-1 into the free frame of
		// d-group g.
		to := c.takeFrame(g)
		src := c.dgroups[g-1]
		vi := c.pickValidFrame(src)
		mov := src.frames[vi].rev
		c.releaseFrame(ptr{g - 1, vi})
		c.placeAt(mov, ptr{g, to})
		c.stats.Demotions++
	}
}

// pickValidFrame returns a random valid frame index in dg. A few
// random draws almost always succeed (demotion sources are full or
// near-full); the linear fallback bounds the worst case.
func (c *Cache) pickValidFrame(dg *dgroup) int {
	for try := 0; try < 8; try++ {
		vi := c.rand.Intn(len(dg.frames))
		if dg.frames[vi].valid {
			return vi
		}
	}
	start := c.rand.Intn(len(dg.frames))
	for i := 0; i < len(dg.frames); i++ {
		vi := (start + i) % len(dg.frames)
		if dg.frames[vi].valid {
			return vi
		}
	}
	panic("nurapid: no valid frame to demote")
}

func (c *Cache) takeFrame(dgroup int) int {
	dg := c.dgroups[dgroup]
	if len(dg.free) == 0 {
		panic("nurapid: takeFrame on full d-group")
	}
	f := dg.free[len(dg.free)-1]
	dg.free = dg.free[:len(dg.free)-1]
	dg.used++
	return f
}

func (c *Cache) releaseFrame(p ptr) {
	dg := c.dgroups[p.dgroup]
	dg.frames[p.frame] = frame{}
	// hotpath:alloc free list is pre-sized to the d-group's frame count and never grows past it
	dg.free = append(dg.free, p.frame)
	dg.used--
}

// CheckInvariants verifies pointer consistency: every valid tag's
// forward pointer targets a valid frame whose reverse pointer is that
// tag, frame free-lists are exact complements of valid frames, and the
// number of valid tags equals the number of used frames. Tests call
// this after workloads; it panics with a description on violation.
func (c *Cache) CheckInvariants() {
	validTags := 0
	c.tags.ForEach(func(_ int, l *cache.Line[tagData]) {
		validTags++
		p := l.Data.fwd
		if p.dgroup < 0 || p.dgroup >= len(c.dgroups) {
			panic(fmt.Sprintf("nurapid: tag fwd d-group %d out of range", p.dgroup))
		}
		fr := c.dgroups[p.dgroup].frames[p.frame]
		if !fr.valid {
			panic("nurapid: tag forward pointer targets an invalid frame (dangling)")
		}
		if fr.rev != l {
			panic("nurapid: frame reverse pointer does not match tag entry")
		}
	})
	usedFrames := 0
	for gi, dg := range c.dgroups {
		valid := 0
		for _, f := range dg.frames {
			if f.valid {
				valid++
			}
		}
		usedFrames += valid
		if valid != dg.used {
			panic(fmt.Sprintf("nurapid: d-group %d used count %d != %d valid frames", gi, dg.used, valid))
		}
		if valid+len(dg.free) != len(dg.frames) {
			panic(fmt.Sprintf("nurapid: d-group %d free list inconsistent", gi))
		}
	}
	if validTags != usedFrames {
		panic(fmt.Sprintf("nurapid: %d valid tags != %d used frames", validTags, usedFrames))
	}
}

// DGroupOf returns which d-group currently holds addr, or -1.
func (c *Cache) DGroupOf(addr memsys.Addr) int {
	if l := c.tags.Probe(addr.BlockAddr(c.cfg.BlockBytes)); l != nil {
		return l.Data.fwd.dgroup
	}
	return -1
}
