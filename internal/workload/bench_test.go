package workload

import "testing"

func BenchmarkGeneratorNext(b *testing.B) {
	b.ReportAllocs()
	g := New(OLTP(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(i % 4)
	}
}

func BenchmarkMixNext(b *testing.B) {
	b.ReportAllocs()
	m := Mixes(1)[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Next(i % 4)
	}
}

// BenchmarkMixesConstruct builds all four Table 2 mixes, as every
// multiprogrammed cell did before it built only its own. The shared
// Zipf tables are warmed first, so an iteration measures what a cell
// pays once the sweep has built them: generator state, no tables.
func BenchmarkMixesConstruct(b *testing.B) {
	b.ReportAllocs()
	Mixes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixesSink = Mixes(uint64(i))
	}
}

var mixesSink []*Multiprogrammed
