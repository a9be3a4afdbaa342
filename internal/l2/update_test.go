package l2

import (
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
)

func smallUpdate() *PrivateUpdate {
	return NewPrivateUpdateWith(4<<10, 4, 64, 10, bus.Config{Latency: 32, SlotCycles: 4}, 300)
}

func TestUpdateNoInvalidationOnWrite(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false) // both hold copies
	// Core 0 writes: core 1's copy is UPDATED, not invalidated.
	p.Access(200, 0, a, true)
	if p.caches[1].Probe(a) == nil {
		t.Fatal("update protocol invalidated the sharer")
	}
	// Core 1's next read is a hit — no coherence miss.
	r := p.Access(300, 1, a, false)
	if r.Category != memsys.Hit {
		t.Errorf("sharer read after update: %v, want hit", r.Category)
	}
	p.CheckInvariants()
}

func TestUpdateBroadcastCostsBus(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false)
	before := p.Updates
	r := p.Access(200, 0, a, true)
	if p.Updates != before+1 {
		t.Fatalf("write to shared block sent %d updates, want 1", p.Updates-before)
	}
	// The update's full bus latency lands on the writer's critical path.
	if r.Latency < 10+32 {
		t.Errorf("write latency %d does not include the bus update", r.Latency)
	}
	// Writes to exclusive blocks are free of bus traffic.
	b := memsys.Addr(0x2000)
	p.Access(300, 2, b, true)
	upd := p.Updates
	p.Access(400, 2, b, true)
	if p.Updates != upd {
		t.Error("write to exclusive block broadcast an update")
	}
}

func TestUpdateSingleDirtyOwner(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x3000)
	p.Access(0, 0, a, true)
	p.Access(100, 1, a, false)
	p.Access(200, 1, a, true) // ownership moves to core 1
	p.Access(300, 0, a, true) // and back
	p.CheckInvariants()
}

func TestUpdateKeepsMultipleCopies(t *testing.T) {
	// The capacity cost §3.2 names: every reader keeps a full copy.
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	for c := 0; c < 4; c++ {
		p.Access(memsys.Cycle(c*100), c, a, false)
	}
	p.Access(500, 0, a, true)
	copies := 0
	for c := 0; c < 4; c++ {
		if p.caches[c].Probe(a) != nil {
			copies++
		}
	}
	if copies != 4 {
		t.Errorf("%d copies after writes, want 4 (updates keep all copies)", copies)
	}
}

func TestUpdateIsCommunicationHook(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	if p.IsCommunication(0, a) {
		t.Error("exclusive block reported write-through")
	}
	p.Access(100, 1, a, false)
	if !p.IsCommunication(0, a) || !p.IsCommunication(1, a) {
		t.Error("shared block not reported write-through")
	}
	if p.IsCommunication(2, a) {
		t.Error("non-holder reported write-through")
	}
}

func TestUpdateRandomInvariants(t *testing.T) {
	p := smallUpdate()
	r := rng.New(31)
	now := memsys.Cycle(0)
	for i := 0; i < 30000; i++ {
		coreID := r.Intn(4)
		var addr memsys.Addr
		if r.Bool(0.5) {
			addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(32)*64)
		} else {
			addr = memsys.Addr(0x80000 + r.Intn(16)*64)
		}
		p.Access(now, coreID, addr, r.Bool(0.3))
		now += memsys.Cycle(r.Intn(20) + 1)
		if i%5000 == 0 {
			p.CheckInvariants()
		}
	}
	p.CheckInvariants()
	if p.Updates == 0 {
		t.Error("no updates broadcast under shared writes")
	}
}

// TestUpdateEliminatesRWSMissesAtACost is §3.2's argument in one test:
// versus invalidate-based private caches, the update protocol nearly
// removes RWS misses but pays a bus transaction on every shared write.
func TestUpdateEliminatesRWSMissesAtACost(t *testing.T) {
	drive := func(l2 memsys.L2) (rws uint64, busTraffic uint64) {
		now := memsys.Cycle(0)
		a := memsys.Addr(0x3000)
		for i := 0; i < 200; i++ {
			l2.Access(now, 0, a, true)
			now += 50
			for _, reader := range []int{1, 2} {
				l2.Access(now, reader, a, false)
				now += 50
			}
		}
		return l2.Stats().Accesses.Count(memsys.LabelRWS),
			l2.Stats().BusTransactions.Total()
	}
	inv := smallPrivate()
	upd := smallUpdate()
	invRWS, _ := drive(inv)
	updRWS, updBus := drive(upd)
	if updRWS*4 >= invRWS {
		t.Errorf("update RWS misses %d not well below invalidate's %d", updRWS, invRWS)
	}
	if updBus < 200 {
		t.Errorf("update bus traffic %d suspiciously low; every shared write must broadcast", updBus)
	}
}

// TestUpdateLineStateTracksExclusivity: a cold fill with no other
// copies installs exclusive (E, or M when dirty), while a fill that
// finds an existing copy installs shared. LineState is the
// stall-diagnostics window into that flag, so it must be exact.
func TestUpdateLineStateTracksExclusivity(t *testing.T) {
	p := smallUpdate()
	a, b := memsys.Addr(0x4000), memsys.Addr(0x5000)
	p.Access(0, 0, a, false)
	if st := p.LineState(0, a); st != "E" {
		t.Errorf("cold read fill state = %q, want E", st)
	}
	p.Access(100, 1, b, true)
	if st := p.LineState(1, b); st != "M" {
		t.Errorf("cold write fill state = %q, want M", st)
	}
	p.Access(200, 2, a, false)
	if st := p.LineState(2, a); st != "S" {
		t.Errorf("second sharer's fill state = %q, want S", st)
	}
}

// TestUpdateEvictionDropsL1Copy: evicting a block from a core's L2
// must drop that core's L1 copy (inclusion), through the registered
// callback, and only for the victim.
func TestUpdateEvictionDropsL1Copy(t *testing.T) {
	p := smallUpdate()
	type drop struct {
		core int
		addr memsys.Addr
	}
	var drops []drop
	p.SetL1Invalidate(func(core int, addr memsys.Addr) { drops = append(drops, drop{core, addr}) })
	// 4 KB, 4-way, 64 B blocks: 16 sets, so a 1 KB stride stays in one
	// set and the fifth block evicts the first.
	for i := 0; i < 5; i++ {
		p.Access(memsys.Cycle(i*1000), 0, memsys.Addr(i*1024), false)
	}
	if len(drops) != 1 || drops[0] != (drop{0, 0}) {
		t.Errorf("L1 drops = %v, want one for core 0's block 0x0", drops)
	}
}

// TestUpdateFillDowngradesHolder: a second core's fill ends the first
// holder's exclusivity. A clean E holder becomes S, and a dirty M
// holder becomes C, the shared owner that still writes the block back.
func TestUpdateFillDowngradesHolder(t *testing.T) {
	p := smallUpdate()
	a, b := memsys.Addr(0x4000), memsys.Addr(0x5000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false)
	if st := p.LineState(0, a); st != "S" {
		t.Errorf("E holder after a second fill = %q, want S", st)
	}
	p.Access(200, 2, b, true)
	p.Access(300, 3, b, false)
	if st := p.LineState(2, b); st != "C" {
		t.Errorf("M holder after a second fill = %q, want C", st)
	}
	p.CheckInvariants()
}
