package l2

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/stats"
)

// TestPrivateDesignsPinned pins both snoopy private designs access by
// access: one seeded 200k-access stream (per-core private regions four
// times the 4 KB cache, a read-mostly shared region and a small
// write-shared set) drives each, and an FNV-64a hash covers every
// Result, every L1-drop callback in order, the update design's
// write-through answer before each access, and the final miss, bus,
// reuse, write-back and update counts. The wanted hashes were recorded
// on the two designs' separate implementations, before they were
// folded onto one snoopy base; any change to either protocol's
// observable behaviour moves them.
func TestPrivateDesignsPinned(t *testing.T) {
	p, u := smallPrivate(), smallUpdate()
	if got, want := pinHash(p, func(int, memsys.Addr) bool { return false }, &p.Writebacks, new(uint64)), uint64(0xd9c42a1e3411a85a); got != want {
		t.Errorf("private: hash %#x, want %#x", got, want)
	}
	if got, want := pinHash(u, u.IsCommunication, &u.Writebacks, &u.Updates), uint64(0xd6670a43a1044303); got != want {
		t.Errorf("private-update: hash %#x, want %#x", got, want)
	}
}

func pinHash(d interface {
	memsys.L2
	memsys.L1Invalidator
	CheckInvariants()
}, isComm func(int, memsys.Addr) bool, writebacks, updates *uint64) uint64 {
	h := fnv.New64a()
	d.SetL1Invalidate(func(core int, addr memsys.Addr) { fmt.Fprintf(h, "d%d:%x;", core, uint64(addr)) })
	r := rng.New(2005)
	now := memsys.Cycle(0)
	for i := 0; i < 200000; i++ {
		core := r.Intn(4)
		var addr memsys.Addr
		switch x := r.Intn(10); {
		case x < 6: // private: 256 blocks per core
			addr = memsys.Addr(0x100000*(core+1) + r.Intn(256)*64)
		case x < 9: // read-mostly shared
			addr = memsys.Addr(0x800000 + r.Intn(96)*64)
		default: // write-shared
			addr = memsys.Addr(0x900000 + r.Intn(8)*64)
		}
		write := r.Bool(0.3)
		fmt.Fprintf(h, "c%t;", isComm(core, addr))
		res := d.Access(now, core, addr, write)
		fmt.Fprintf(h, "r%d,%d;", uint64(res.Latency), int(res.Category))
		now += memsys.Cycle(r.Intn(40) + 1)
	}
	d.CheckInvariants()
	st := d.Stats()
	fmt.Fprintf(h, "off%d;", st.OffChipMisses)
	for _, l := range st.BusTransactions.Labels() {
		fmt.Fprintf(h, "bus %s=%d;", l, st.BusTransactions.Count(l))
	}
	bus := d.(interface{ Bus() *bus.Bus }).Bus()
	fmt.Fprintf(h, "total%d wait%d;", bus.TotalTransactions(), uint64(bus.WaitCycles()))
	for b := stats.Reuse0; b <= stats.ReuseOver5; b++ {
		fmt.Fprintf(h, "ros%d rws%d;", st.ReuseROS.Count(b), st.ReuseRWS.Count(b))
	}
	fmt.Fprintf(h, "wb%d upd%d", *writebacks, *updates)
	return h.Sum64()
}
