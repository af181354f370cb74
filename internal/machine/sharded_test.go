package machine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
	"dircoh/internal/tango"
)

// stressWorkload mirrors cmd/protostress's adversarial mix: reads, writes,
// lock-protected writes and a closing barrier over a small block pool, all
// drawn from one seeded rng so every run of a seed is the same workload.
func stressWorkload(seed int64, procs, refs, blocks int, sync bool) *tango.Workload {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var b tango.Builder
		for i := 0; i < refs; i++ {
			blk := int64(rng.Intn(blocks))
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				b.Write(addr(blk))
			case 4:
				if sync {
					lock := addr(int64(blocks) + int64(rng.Intn(4)))
					b.Lock(lock)
					b.Write(addr(blk))
					b.Unlock(lock)
				} else {
					b.Write(addr(blk))
				}
			default:
				b.Read(addr(blk))
			}
		}
		if sync {
			b.Barrier(addr(int64(blocks) + 8))
		}
		streams[p] = b.Refs()
	}
	return &tango.Workload{Name: "stress", Streams: streams}
}

// runSharded runs cfg/w at the given shard width and returns the result
// plus the frozen metrics text.
func runSharded(t *testing.T, cfg Config, w *tango.Workload, shards int) (*Result, string) {
	t.Helper()
	cfg.Shards = shards
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := min(shards, cfg.Clusters()); m.Shards() != want {
		t.Fatalf("shards=%d: running %d shards, want %d", shards, m.Shards(), want)
	}
	r, err := m.Run(w)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("shards=%d: coherence violated: %v", shards, err)
	}
	var buf bytes.Buffer
	if err := m.MetricsSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

// TestShardedWidthIndependence is the core equivalence claim of the
// sharded engine: every measurement — the full Result and every metric in
// the registry — is byte-identical at shard widths 1, 2, 4 and 8, across
// schemes, directory geometries and both barrier kinds, on a seeded
// protostress-style mix with locks and barriers.
func TestShardedWidthIndependence(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
	}
	cases := []tc{
		{"fullvec", testConfig(16, FullVec)},
		{"coarse", testConfig(16, CoarseVec2)},
		{"broadcast", testConfig(13, Broadcast)},
		{"nb-sparse", func() Config {
			c := testConfig(16, NoBroadcast)
			c.Sparse = SparseConfig{Entries: 8, Assoc: 2, Policy: sparse.LRU}
			return c
		}()},
		{"superset-overflow", func() Config {
			c := testConfig(16, SupersetX)
			c.Overflow = &OverflowDirConfig{Ptrs: 1, WideEntries: 4, Assoc: 2}
			return c
		}()},
		{"tree-barrier-ppc2", func() Config {
			c := testConfig(16, CoarseVec2)
			c.ProcsPerCluster = 2
			c.Barrier = TreeBarrier
			return c
		}()},
	}
	for i, c := range cases {
		c := c
		seed := int64(1000 + i)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.cfg.Seed = seed
			w := stressWorkload(seed, c.cfg.Procs, 120, 48, true)
			base, baseTxt := runSharded(t, c.cfg, w, 1)
			for _, shards := range []int{2, 4, 8} {
				r, txt := runSharded(t, c.cfg, w, shards)
				if !reflect.DeepEqual(base, r) {
					t.Errorf("shards=%d result differs from shards=1:\n  1: %s\n  %d: %s",
						shards, base.Summary(), shards, r.Summary())
				}
				if txt != baseTxt {
					t.Errorf("shards=%d metrics differ from shards=1", shards)
				}
			}
		})
	}
}

// TestShardedFigureWorkloadDeterminism repeats a sharded run and demands
// bit-identical results — run-to-run determinism with goroutines in the
// loop.
func TestShardedFigureWorkloadDeterminism(t *testing.T) {
	cfg := testConfig(32, CoarseVec2)
	cfg.Seed = 7
	w := stressWorkload(7, 32, 100, 64, true)
	r1, t1 := runSharded(t, cfg, w, 4)
	r2, t2 := runSharded(t, cfg, w, 4)
	if !reflect.DeepEqual(r1, r2) || t1 != t2 {
		t.Fatal("sharded run is not deterministic across repeats")
	}
}

// TestShardedSingleCluster exercises the degenerate shapes: one cluster
// (no cross-shard traffic exists at all) and more shards than clusters
// (the width clamps to the cluster count).
func TestShardedSingleCluster(t *testing.T) {
	cfg := testConfig(1, FullVec)
	cfg.Shards = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want clamp to 1", got)
	}
	var b tango.Builder
	b.Read(addr(0))
	b.Write(addr(0))
	if _, err := m.Run(wl(b.Refs())); err != nil {
		t.Fatal(err)
	}
}

// TestWidthCappedFeatures: the checker, fault injection, mesh port
// contention and deliberate protocol faults run at width 1 whatever width
// is requested, and since 0 and 1 both mean one worker the results are
// identical at requested widths 0, 1 and 2. Observability features and a
// plain config shard as requested, and the degenerate timing the protocol
// cannot order is a typed Validate error.
func TestWidthCappedFeatures(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		cfg := testConfig(4, FullVec)
		cfg.Seed = 41
		mut(&cfg)
		return cfg
	}
	w := stressWorkload(41, 4, 120, 24, true)
	capped := map[string]Config{
		"checker":  mk(func(c *Config) { c.Check = true }),
		"faults":   mk(func(c *Config) { c.Mesh.Faults = mesh.FaultConfig{Drop: 0.02, Dup: 0.02, DelayP: 0.1, DelayMax: 50} }),
		"porttime": mk(func(c *Config) { c.Mesh.PortTime = 2 }),
		"fault":    mk(func(c *Config) { c.Check, c.Fault = true, FaultDropInval }),
	}
	for name, cfg := range capped {
		var base *Result
		for _, shards := range []int{0, 1, 2} {
			cfg.Shards = shards
			m, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if m.Shards() != 1 {
				t.Errorf("%s: requested %d shards, running %d, want 1", name, shards, m.Shards())
			}
			r, err := m.Run(w)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if base == nil {
				base = r
			} else if !reflect.DeepEqual(base, r) {
				t.Errorf("%s: shards=%d result differs from shards=0:\n  0: %s\n  %d: %s",
					name, shards, base.Summary(), shards, r.Summary())
			}
		}
	}
	sharded := map[string]Config{
		"clean":    mk(func(*Config) {}),
		"trace":    mk(func(c *Config) { c.Trace = obs.NewTracer(obs.Discard, 0) }),
		"spans":    mk(func(c *Config) { c.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0) }),
		"sampling": mk(func(c *Config) { c.SampleEvery = 64 }),
		"metrics":  mk(func(c *Config) { c.Metrics = obs.NewRegistry() }),
	}
	for name, cfg := range sharded {
		cfg.Shards = 2
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Shards() != 2 {
			t.Errorf("%s: Shards()=%d, want a 2-shard run", name, m.Shards())
		}
	}
	degenerate := mk(func(c *Config) {
		c.Timing.InvalBus = 0
		c.Mesh = mesh.Config{Base: 0, PerHop: 2}
	})
	var te *TimingError
	if _, err := New(degenerate); !errors.As(err, &te) {
		t.Fatalf("degenerate timing: New returned %v, want a *TimingError", err)
	}
}

// TestShardedWatchdog: the deterministic sharded watchdog must abort a
// wedged run (a processor waiting on a lock that is never released) at
// width 2 as it does at width 1, with a diagnostic dump.
func TestShardedWatchdog(t *testing.T) {
	cfg := testConfig(2, FullVec)
	cfg.Shards = 2
	cfg.StuckBudget = 1 << 14
	var b0, b1 tango.Builder
	b0.Lock(addr(100))
	// proc 0 never unlocks; proc 1 waits forever.
	b1.Lock(addr(100))
	b1.Unlock(addr(100))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(wl(b0.Refs(), b1.Refs()))
	se, ok := err.(*StuckError)
	if !ok {
		t.Fatalf("wedged sharded run returned %v, want *StuckError", err)
	}
	if se.Dump == "" {
		t.Fatal("stuck error carries no diagnostic dump")
	}
}

// BenchmarkMachineParallel compares the sharded core's throughput across
// widths on a 64-processor machine — the BENCH trajectory's
// cycles-per-second source.
func BenchmarkMachineParallel(b *testing.B) {
	const procs = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := testConfig(procs, CoarseVec2)
			cfg.Shards = shards
			w := stressWorkload(11, procs, 2000, 512, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := m.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.ExecTime), "cycles")
			}
		})
	}
}
