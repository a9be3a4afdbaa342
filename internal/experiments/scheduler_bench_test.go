package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkExecuteCells measures the worker-pool overhead of the cell
// farm itself — queue fill, goroutine spawn, per-cell publication —
// against a synthetic plan of 256 cheap deterministic cells, at the
// two worker counts the parallel-throughput baseline tracks. Cells do
// fixed arithmetic rather than simulate, so the number is the
// scheduler's own cost: farm-scale PRs (sharded multi-process
// execution, MSHR-driven async cells) inherit this as the floor their
// coordination overhead is diffed against via BENCH_quick.json.
//
// It does not report allocations: each call spawns its workers, and
// whether the runtime reuses a dead goroutine or a parked waiter's
// record or allocates a new one depends on scheduling, so B/op varies
// run to run even after a warm-up. BENCH_quick.json tracks its ns/op
// only.
func BenchmarkExecuteCells(b *testing.B) {
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			cells := make([]Cell, 256)
			for i := range cells {
				cells[i] = Cell{Key: fmt.Sprintf("bench/cell%03d", i), Run: func() {
					x := 0
					for j := 0; j < 8192; j++ {
						x += j ^ (x >> 3)
					}
					sink.Add(int64(x))
				}}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ExecuteCells(cells, workers, false, nil)
			}
		})
	}
}
