package cache

import "testing"

func BenchmarkHierarchyHit(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(42, Shared, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(42, false, uint64(i))
	}
}

func BenchmarkHierarchyMissFill(b *testing.B) {
	h := NewHierarchy(Config{L1Size: 1 << 10, L1Assoc: 1, L2Size: 4 << 10, L2Assoc: 2, Block: 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := int64(i % 4096)
		if h.Access(blk, false, uint64(i)) == Miss {
			h.Fill(blk, Shared, uint64(i))
		}
	}
}

var hierarchySink *Hierarchy

func BenchmarkNewHierarchy(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hierarchySink = NewHierarchy(cfg)
	}
}
