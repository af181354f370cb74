package machine

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

// overheadWorkload is the mixed random workload the overhead measurements
// run: enough references that one run takes tens of milliseconds, so the
// timing ratio is meaningful.
func overheadWorkload() *tango.Workload {
	const procs = 16
	const refsPerProc = 4000
	rng := rand.New(rand.NewSource(7))
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var bl tango.Builder
		for i := 0; i < refsPerProc; i++ {
			blk := int64(rng.Intn(512))
			if rng.Intn(4) == 0 {
				bl.Write(addr(blk))
			} else {
				bl.Read(addr(blk))
			}
		}
		streams[p] = bl.Refs()
	}
	return wl(streams...)
}

// Width-1 observability budget, per fired event: event tracing and span
// recording on discard sinks add at most this many heap allocations and
// bytes over an obs-off run of overheadWorkload (measured 0.107 allocs and
// 8.6 B, mostly one transaction record per remote transaction).
const (
	obsAllocsPerEvent = 0.22
	obsBytesPerEvent  = 13
)

// perEvent runs w on a machine built from cfg and returns the heap
// allocations and bytes per fired event, the result, and the event count.
// Two GCs before the run empty the sync.Pools (the sharded core's chunk
// pools among them), so pooled buffers cannot hide their bytes.
func perEvent(t *testing.T, cfg Config, w *tango.Workload) (allocs, bytes float64, res *Result, fired uint64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if res, err = m.Run(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fired = m.simFired()
	ev := float64(fired)
	return float64(after.Mallocs-before.Mallocs) / ev, float64(after.TotalAlloc-before.TotalAlloc) / ev, res, fired
}

// obsConfig is overheadWorkload's machine with event tracing and span
// recording on discard sinks when on is set.
func obsConfig(on bool) Config {
	cfg := testConfig(16, CoarseVec2)
	if on {
		cfg.Trace = obs.NewTracer(obs.Discard, 0)
		cfg.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
	}
	return cfg
}

// TestTraceOverheadDisabled guards the observability layer's zero-cost
// claim without a clock: turning event tracing and span recording on
// (discard sinks) must not change the simulation — the same events fire
// and the Result is identical — and may add no more heap traffic per
// event than the width-1 budget. The wall-clock ratio is host-dependent,
// so it is reported by perfbench (obs.overhead_ratio), not asserted here.
func TestTraceOverheadDisabled(t *testing.T) {
	w := overheadWorkload()
	offA, offB, offRes, offFired := perEvent(t, obsConfig(false), w)
	onA, onB, onRes, onFired := perEvent(t, obsConfig(true), w)
	t.Logf("%d events; per event: off %.3f allocs %.1f B, on %.3f allocs %.1f B", offFired, offA, offB, onA, onB)
	if onFired != offFired {
		t.Errorf("observability changes the run: %d events fired with it on, %d with it off", onFired, offFired)
	}
	if !reflect.DeepEqual(onRes, offRes) {
		t.Errorf("observability changes the result:\non  %+v\noff %+v", onRes, offRes)
	}
	checkObsBudget(t, offA, offB, onA, onB)
}

// checkObsBudget fails t when observability's per-event heap cost (on
// minus off) exceeds the width-1 budget.
func checkObsBudget(t *testing.T, offA, offB, onA, onB float64) {
	t.Helper()
	if d := onA - offA; d > obsAllocsPerEvent {
		t.Errorf("observability adds %.3f allocations per event at width 1 (want <= %v)", d, obsAllocsPerEvent)
	}
	if d := onB - offB; d > obsBytesPerEvent {
		t.Errorf("observability adds %.1f bytes per event at width 1 (want <= %v)", d, obsBytesPerEvent)
	}
}

// TestObsBytesPerEvent is the deterministic guard on width-1
// observability cost: with event tracing and span recording on discard
// sinks, the extra heap allocations and bytes per fired event over an
// obs-off run must stay within obsAllocsPerEvent and obsBytesPerEvent. At
// width 1 records go straight to the sinks; per-shard chunk buffering,
// which the merge needs only above width 1, adds about 50 B per event
// here, so bringing it back at width 1 fails this test whatever the host
// load.
func TestObsBytesPerEvent(t *testing.T) {
	w := overheadWorkload()
	offA, offB, _, _ := perEvent(t, obsConfig(false), w)
	onA, onB, _, _ := perEvent(t, obsConfig(true), w)
	t.Logf("per event: off %.3f allocs %.1f B, on %.3f allocs %.1f B", offA, offB, onA, onB)
	checkObsBudget(t, offA, offB, onA, onB)
}

// TestProtocolPathAllocFree guards the pooled continuation records
// (cont.go): with observability and faults off at width 1, every protocol
// hop is scheduled through a recycled record, so what remains per fired
// event is directory entries, wheel slots and metric setup — measured
// 0.036 allocations and 1.9 B, where per-message closures made 0.834 and
// 44.2 B. Bringing back a single hot-path closure fails both bounds: one
// per read request measured 0.115 allocs and 3.8 B, one per invalidation
// ack 0.145 and 4.6 B, one per home unlock 0.081 and 3.4 B.
func TestProtocolPathAllocFree(t *testing.T) {
	const (
		protoAllocsPerEvent = 0.05
		protoBytesPerEvent  = 3
	)
	allocs, bytes, _, fired := perEvent(t, obsConfig(false), overheadWorkload())
	t.Logf("%d events; per event: %.4f allocs %.2f B", fired, allocs, bytes)
	if allocs > protoAllocsPerEvent {
		t.Errorf("protocol path makes %.4f allocations per event (want <= %v)", allocs, protoAllocsPerEvent)
	}
	if bytes > protoBytesPerEvent {
		t.Errorf("protocol path allocates %.2f bytes per event (want <= %v)", bytes, protoBytesPerEvent)
	}
}

// TestShardedObsOverhead holds the overhead guard on the sharded core at
// width 4. The budget is wider than the serial test's: the serial discard
// path recycles a fixed ring and retains nothing, while the sharded core
// must retain every record in per-shard chunks until the canonical
// (time, key) merge at quiescence — tens of megabytes written, re-read,
// and emitted on this workload — so byte-identical output has a real
// memory-traffic floor (measured ~1.25-1.35x; see DESIGN.md). The guard
// catches regressions in the chunked buffering, not a zero-cost claim.
func TestShardedObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	w := overheadWorkload()
	run := func(tr *obs.Tracer, sp *obs.SpanRecorder) time.Duration {
		cfg := testConfig(16, CoarseVec2)
		cfg.Shards = 4
		cfg.Trace = tr
		cfg.Spans = sp
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Shards() != 4 {
			t.Fatalf("running %d shards, want 4", m.Shards())
		}
		start := time.Now()
		if _, err := m.Run(w); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(nil, nil)

	minOff := time.Duration(1<<63 - 1)
	minOn := minOff
	for round := 0; round < 5; round++ {
		if d := run(nil, nil); d < minOff {
			minOff = d
		}
		if d := run(obs.NewTracer(obs.Discard, 0), obs.NewSpanRecorder(obs.DiscardSpans, 0)); d < minOn {
			minOn = d
		}
	}
	ratio := float64(minOn) / float64(minOff)
	t.Logf("width 4: obs off %v, obs on %v, ratio %.3f", minOff, minOn, ratio)
	if ratio > 1.5 {
		t.Errorf("width-4 observability is %.0f%% slower than disabled (want <= 50%%)", 100*(ratio-1))
	}
}

// BenchmarkMachineTraceDiscard is BenchmarkMachineRefsPerSec with tracing
// enabled on the discard sink, for before/after comparison of the
// instrumentation's cost.
func BenchmarkMachineTraceDiscard(b *testing.B) {
	w := overheadWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := testConfig(16, CoarseVec2)
		cfg.Trace = obs.NewTracer(obs.Discard, 0)
		cfg.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}
