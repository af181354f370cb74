package machine_test

import (
	"runtime"
	"testing"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
)

// allocBytes returns the heap bytes fn allocated.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func scaleConfig(clusters int) machine.Config {
	cfg := machine.DefaultConfig(machine.TwoLevel)
	cfg.Procs = clusters
	cfg.Barrier = machine.TreeBarrier
	return cfg
}

// TestNewAllocGrowsWithUse pins the bytes machine.New allocates on the
// scale geometries, and what a short scale-probe run adds. Caches grow
// with the sets a run touches, so building a machine costs per-cluster
// bookkeeping and page tables only; allocating every cache line up front
// would cost 24 B × 20,480 lines per processor (about 0.5 GB at 1024
// clusters, 2 GB at 4096) and fail these bounds by an order of
// magnitude. Byte counts, not timings, so the test is deterministic up
// to runtime noise far below the bounds.
func TestNewAllocGrowsWithUse(t *testing.T) {
	for _, tc := range []struct {
		clusters int
		limit    uint64
	}{
		{1024, 16 << 20},
		{4096, 64 << 20},
	} {
		var err error
		n := allocBytes(func() { _, err = machine.New(scaleConfig(tc.clusters)) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("machine.New at %d clusters allocates %.1f MB", tc.clusters, float64(n)/(1<<20))
		if n > tc.limit {
			t.Errorf("machine.New at %d clusters allocates %d bytes, want <= %d", tc.clusters, n, tc.limit)
		}
	}

	w := exp.ScaleProbe(1024, 4)
	var err error
	n := allocBytes(func() {
		var m *machine.Machine
		if m, err = machine.New(scaleConfig(1024)); err == nil {
			_, err = m.Run(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("machine.New and a 4-round scale probe at 1024 clusters allocate %.1f MB", float64(n)/(1<<20))
	if limit := uint64(32 << 20); n > limit {
		t.Errorf("machine.New and a 4-round scale probe at 1024 clusters allocate %d bytes, want <= %d", n, limit)
	}
}
