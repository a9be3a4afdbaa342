package cache

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cmpnurapid/internal/memsys"
)

// startClockNearWrap is the test-only hook that moves an array's clock
// forward to n ticks below 2^32. Moving it forward keeps every stamp
// unique, so the array stays a valid LRU state.
func startClockNearWrap[T any](a *Array[T], n uint32) {
	if c := uint32(math.MaxUint32) - n; c > a.clock {
		a.clock = c
	}
}

// refArray is the reference model the compact array is checked
// against: a valid bit, a full tag and a 64-bit stamp per line, with a
// clock that never wraps.
type refArray struct {
	sets, ways int
	blockBits  uint
	valid      []bool
	tag        []uint64
	stamp      []uint64
	clock      uint64
}

func newRefArray(g Geometry) *refArray {
	n := g.Sets * g.Ways
	return &refArray{sets: g.Sets, ways: g.Ways, blockBits: uint(log2(int(g.BlockBytes))),
		valid: make([]bool, n), tag: make([]uint64, n), stamp: make([]uint64, n)}
}

func (r *refArray) base(addr memsys.Addr) int {
	return int((uint64(addr)>>r.blockBits)&uint64(r.sets-1)) * r.ways
}

func (r *refArray) probe(addr memsys.Addr) int {
	b := r.base(addr)
	for i := b; i < b+r.ways; i++ {
		if r.valid[i] && r.tag[i] == uint64(addr)>>r.blockBits {
			return i
		}
	}
	return -1
}

func (r *refArray) touch(i int) {
	r.clock++
	r.stamp[i] = r.clock
}

func (r *refArray) victim(addr memsys.Addr) int {
	b := r.base(addr)
	lru := -1
	for i := b; i < b+r.ways; i++ {
		if !r.valid[i] {
			return i
		}
		if lru == -1 || r.stamp[i] < r.stamp[lru] {
			lru = i
		}
	}
	return lru
}

// lruOrder returns the valid lines of set from least to most recently
// used.
func (r *refArray) lruOrder(set int) []int {
	var out []int
	for len(out) < r.ways {
		best := -1
		for i := set * r.ways; i < (set+1)*r.ways; i++ {
			if !r.valid[i] || slices.Contains(out, i) {
				continue
			}
			if best == -1 || r.stamp[i] < r.stamp[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, best)
	}
	return out
}

// indexOf returns l's position in a's backing array, or -1 for nil.
func indexOf[T any](a *Array[T], l *Line[T]) int {
	if l == nil {
		return -1
	}
	for i := range a.lines {
		if &a.lines[i] == l {
			return i
		}
	}
	panic("line is not in the array")
}

// TestCompactArrayMatchesReferenceAcrossClockWrap drives a seeded mix
// of Probe/Touch/Install/Invalidate/Victim/LRUOrder through the 32-bit
// clock's wrap, many times over, against the 64-bit-stamp model. Every
// hit, victim and LRU order must match at every step, and the clock
// must restart above the way count exactly when it would wrap.
func TestCompactArrayMatchesReferenceAcrossClockWrap(t *testing.T) {
	for _, g := range []Geometry{
		{Sets: 4, Ways: 4, BlockBytes: 64},
		{Sets: 2, Ways: 8, BlockBytes: 128},
		{Sets: 1, Ways: 64, BlockBytes: 64},
	} {
		a := NewArray[int](g)
		ref := newRefArray(g)
		rnd := rand.New(rand.NewSource(int64(g.Ways)))
		blocks := g.Sets * g.Ways * 2
		wraps := 0
		touch := func(l *Line[int]) {
			before := a.clock
			a.Touch(l)
			want := before + 1
			if before == math.MaxUint32 {
				want = uint32(g.Ways) + 1
				wraps++
			}
			if a.clock != want {
				t.Fatalf("%+v: clock %d after Touch from %d, want %d", g, a.clock, before, want)
			}
			ref.touch(indexOf(a, l))
		}
		for step := 0; step < 40000; step++ {
			if step%400 == 0 {
				startClockNearWrap(a, uint32(rnd.Intn(2*g.Ways)))
			}
			addr := memsys.Addr(rnd.Intn(blocks)) * memsys.Addr(g.BlockBytes)
			l := a.Probe(addr)
			if got, want := indexOf(a, l), ref.probe(addr); got != want {
				t.Fatalf("%+v step %d: Probe(%#x) = line %d, reference %d", g, step, addr, got, want)
			}
			switch op := rnd.Intn(10); {
			case op < 4: // access: touch on a hit, install over the victim on a miss
				if l != nil {
					touch(l)
					break
				}
				v := a.Victim(addr)
				if got, want := indexOf(a, v), ref.victim(addr); got != want {
					t.Fatalf("%+v step %d: Victim(%#x) = line %d, reference %d", g, step, addr, got, want)
				}
				if v.Valid() && a.AddrOf(v) != memsys.Addr(ref.tag[indexOf(a, v)]<<ref.blockBits) {
					t.Fatalf("%+v step %d: AddrOf(victim) = %#x, reference tag %#x", g, step, a.AddrOf(v), ref.tag[indexOf(a, v)])
				}
				i := indexOf(a, v)
				ref.valid[i], ref.tag[i] = true, uint64(addr)>>ref.blockBits
				before := a.clock
				if a.Install(v, addr, step) != v || v.Data != step || !v.Valid() {
					t.Fatalf("%+v step %d: Install did not fill the victim", g, step)
				}
				if before == math.MaxUint32 {
					wraps++
				}
				ref.touch(i)
			case op < 5:
				if l != nil {
					a.Invalidate(l)
					ref.valid[indexOf(a, l)] = false
				}
			case op < 7:
				if got, want := indexOf(a, a.Victim(addr)), ref.victim(addr); got != want {
					t.Fatalf("%+v step %d: Victim(%#x) = line %d, reference %d", g, step, addr, got, want)
				}
			default:
				set := a.SetIndex(addr)
				want := ref.lruOrder(set)
				stop := rnd.Intn(g.Ways + 1) // 0 scans the whole set
				var got []int
				a.LRUOrder(set, func(l *Line[int]) bool {
					got = append(got, indexOf(a, l))
					return len(got) != stop
				})
				if stop > 0 && stop < len(want) {
					want = want[:stop]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%+v step %d: LRUOrder(set %d) = %v, reference %v", g, step, set, got, want)
				}
			}
		}
		if wraps < 20 {
			t.Fatalf("%+v: only %d clock wraps exercised", g, wraps)
		}
		t.Logf("%+v: %d clock wraps", g, wraps)
	}
}

// TestLRUOrderSeesTheMaximumStamp: the stamp handed out just before the
// clock wraps is 2^32-1; LRUOrder must still list that line.
func TestLRUOrderSeesTheMaximumStamp(t *testing.T) {
	a := smallArray()
	a0, a1 := memsys.Addr(0), memsys.Addr(64*4)
	a.Install(a.Victim(a0), a0, 0)
	startClockNearWrap(a, 1)
	a.Install(a.Victim(a1), a1, 1) // stamp 2^32-1
	var order []memsys.Addr
	a.LRUOrder(0, func(l *Line[int]) bool {
		order = append(order, a.AddrOf(l))
		return true
	})
	if len(order) != 2 || order[0] != a0 || order[1] != a1 {
		t.Errorf("LRUOrder = %#x, want [%#x %#x]", order, a0, a1)
	}
}

// TestRenormalizeRanksValidLines pins the wrap itself: each valid
// line's stamp becomes its rank within its set, and the touched line
// becomes MRU above every rank.
func TestRenormalizeRanksValidLines(t *testing.T) {
	a := NewArray[int](Geometry{Sets: 2, Ways: 4, BlockBytes: 64})
	// Set 0 gets four blocks, then loses block 2; set 1 gets block 1.
	for _, blk := range []memsys.Addr{0, 2, 4, 1, 6} {
		addr := blk * 64
		a.Install(a.Victim(addr), addr, int(blk))
	}
	a.Invalidate(a.Probe(2 * 64))
	startClockNearWrap(a, 0)
	a.Touch(a.Probe(0)) // wraps: block 0 becomes MRU of set 0
	want := map[memsys.Addr]uint32{4 * 64: 2, 6 * 64: 3, 0: 5, 64: 1}
	for addr, stamp := range want {
		if got := a.Probe(addr).lastUse; got != stamp {
			t.Errorf("block %#x: stamp %d after the wrap, want %d", addr, got, stamp)
		}
	}
	if a.clock != 5 {
		t.Errorf("clock = %d after the wrap, want ways+1 = 5", a.clock)
	}
}

// TestLineIsOneTagWordAndAStamp pins the compact layout: one tag word
// and a 32-bit stamp, so a payload of up to 4 B fits in a 16 B line.
func TestLineIsOneTagWordAndAStamp(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the pinned size is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Line[struct{}]{}); got != 16 {
		t.Errorf("empty-payload line is %d B, want 16", got)
	}
	if got := unsafe.Sizeof(Line[int32]{}); got != 16 {
		t.Errorf("int32-payload line is %d B, want 16", got)
	}
}

// TestGeometryValidateBounds: 2-byte blocks and 64 ways are the
// smallest block and the widest set an array accepts.
func TestGeometryValidateBounds(t *testing.T) {
	NewArray[int](Geometry{Sets: 4, Ways: 64, BlockBytes: 2})
	for _, g := range []Geometry{
		{Sets: 4, Ways: 2, BlockBytes: 1},  // key = tag+1 could wrap
		{Sets: 4, Ways: 0, BlockBytes: 64}, // no ways
		{Sets: 4, Ways: 65, BlockBytes: 64},
		{Sets: 0, Ways: 2, BlockBytes: 64},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "cache: ") {
					t.Errorf("%+v: panic = %q, want a cache: diagnostic", g, msg)
				}
			}()
			NewArray[int](g)
		}()
	}
}
