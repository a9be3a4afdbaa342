package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/topo"
)

// streamOps is how many ops per core the stream pins cover.
const streamOps = 65_536

// pinnedStreams holds the FNV-1a hashes of the first streamOps ops of
// every core of every workload at seed 42, recorded before the Zipf
// tables became shared and guide-indexed. A change to the sampler, the
// seeding or the generators that moves one rank shows up here, at the
// source, before any figure.
var pinnedStreams = map[string]string{
	"oltp":    "25f68666b459a9d1",
	"apache":  "5c27fa8fd4ad5551",
	"specjbb": "fc173473d5846ce0",
	"ocean":   "5274c744969a612c",
	"barnes":  "f9ead6683f527390",
	"MIX1":    "58dac19876340ea3",
	"MIX2":    "03a3571017bd0ccb",
	"MIX3":    "3a4093ac2ef4d323",
	"MIX4":    "0579c95bb806544b",
}

// streamHash hashes core 0's first streamOps ops, then core 1's, and
// so on. Per-core streams do not depend on interleaving, so drawing
// them one core at a time is the same stream every run sees.
func streamHash(w cmpsim.Workload) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for c := 0; c < topo.NumCores; c++ {
		for i := 0; i < streamOps; i++ {
			op := w.Next(c)
			put(uint64(op.Addr))
			put(uint64(op.Compute))
			put(flag(op.Write) | flag(op.Instr)<<1 | flag(op.NoMem)<<2)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestStreamsPinned(t *testing.T) {
	var ws []cmpsim.Workload
	for _, p := range Multithreaded(42) {
		ws = append(ws, New(p))
	}
	for _, m := range Mixes(42) {
		ws = append(ws, m)
	}
	if len(ws) != len(pinnedStreams) {
		t.Fatalf("%d workloads, %d pinned hashes", len(ws), len(pinnedStreams))
	}
	for _, w := range ws {
		if got, want := streamHash(w), pinnedStreams[w.Name()]; got != want {
			t.Errorf("%s: stream hash %s, pinned %s", w.Name(), got, want)
		}
	}
}
