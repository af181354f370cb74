package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refItem and refHeap are a plain container/heap scheduler ordered by
// (time, insertion sequence): the reference the wheel is checked against.
type refItem struct {
	at  Time
	seq uint64
	fn  Event
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any     { old := *h; it := old[len(old)-1]; *h = old[:len(old)-1]; return it }

// refSched is the reference scheduler: the subset of Engine's API the
// oracle test drives.
type refSched struct {
	now Time
	seq uint64
	h   refHeap
}

func (r *refSched) After(d Time, fn Event) {
	r.seq++
	heap.Push(&r.h, refItem{at: r.now + d, seq: r.seq, fn: fn})
}

func (r *refSched) Run() Time {
	for r.h.Len() > 0 {
		it := heap.Pop(&r.h).(refItem)
		r.now = it.at
		it.fn()
	}
	return r.now
}

// TestWheelMatchesEngine cross-checks the wheel Engine against the
// container/heap reference on a randomized schedule, including events that
// schedule further events: both must fire the same callbacks in the same
// order at the same times.
func TestWheelMatchesEngine(t *testing.T) {
	type sched interface {
		After(Time, Event)
		Run() Time
	}
	run := func(s sched) []int {
		var order []int
		rng := rand.New(rand.NewSource(42))
		id := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 30
			if depth > 0 {
				n = 2
			}
			for i := 0; i < n; i++ {
				myID := id
				id++
				d := Time(rng.Intn(700)) // crosses the wheel horizon both ways
				s.After(d, func() {
					order = append(order, myID)
					if depth < 3 && myID%3 == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		s.Run()
		return order
	}
	var e Engine
	ref := run(&refSched{})
	for _, s := range []*Engine{&e, NewEngine(64)} {
		got := run(s)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("firing order diverged:\nreference: %v\nwheel:     %v", ref, got)
		}
	}
}

// TestWheelTieBreakAcrossBuckets pins the key ordering for equal-time
// events that reach the slot by different routes: one through the overflow
// heap (scheduled beyond the horizon), one bucketed directly later. The
// smaller key must fire first even though it was inserted second.
func TestWheelTieBreakAcrossBuckets(t *testing.T) {
	w := NewEngine(8)
	var order []string
	w.AtKey(9, 2, func() { order = append(order, "overflow") }) // 9-0 >= 8: overflow heap
	w.AtKey(5, 1, func() {
		// now = 5: t=9 is inside the horizon, bucketed directly with a
		// smaller key than the overflow event already bound for t=9.
		w.AtKey(9, 1, func() { order = append(order, "direct") })
	})
	w.Run()
	want := []string{"direct", "overflow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tie-break order = %v, want %v", order, want)
	}
	if w.Now() != 9 {
		t.Fatalf("final time = %d, want 9", w.Now())
	}
}

// TestWheelKeyOrderInsertionIndependent verifies AtKey order does not
// depend on insertion order — the property the sharded machine core's
// deterministic cross-shard merge rests on.
func TestWheelKeyOrderInsertionIndependent(t *testing.T) {
	type ev struct {
		at  Time
		key uint64
	}
	evs := []ev{{20, 7}, {20, 3}, {5, 1}, {300, 2}, {300, 9}, {20, 5}, {5, 4}}
	var first []ev
	for perm := 0; perm < 3; perm++ {
		w := NewEngine(16)
		var got []ev
		for i := range evs {
			e := evs[(i+perm*3)%len(evs)]
			w.AtKey(e.at, e.key, func() { got = append(got, e) })
		}
		w.Run()
		if perm == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("insertion order %d changed firing order: %v vs %v", perm, got, first)
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.at > b.at || (a.at == b.at && a.key > b.key) {
			t.Fatalf("fired out of (at,key) order: %v before %v", a, b)
		}
	}
}

// TestWheelRunUntilExactDeadline exercises RunUntil with an event exactly
// at the deadline, including an in-flight callback that schedules another
// event at the deadline itself: both must fire, the later event must not,
// on both the zero Engine and a small explicit wheel.
func TestWheelRunUntilExactDeadline(t *testing.T) {
	for i, s := range []*Engine{{}, NewEngine(8)} {
		var fired []string
		s.At(5, func() { fired = append(fired, "early") })
		s.At(10, func() {
			fired = append(fired, "deadline")
			s.At(10, func() { fired = append(fired, "inflight") }) // same-cycle chain
		})
		s.At(11, func() { fired = append(fired, "late") })
		if s.RunUntil(10) {
			t.Fatalf("engine %d: RunUntil(10) drained, event at 11 still pending", i)
		}
		want := []string{"early", "deadline", "inflight"}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("engine %d: fired %v, want %v", i, fired, want)
		}
		if s.Now() != 10 {
			t.Fatalf("engine %d: Now() = %d after RunUntil(10), want 10", i, s.Now())
		}
		if s.Pending() != 1 {
			t.Fatalf("engine %d: %d events pending, want 1", i, s.Pending())
		}
		if !s.RunUntil(11) {
			t.Fatalf("engine %d: RunUntil(11) did not drain", i)
		}
		if fired[len(fired)-1] != "late" {
			t.Fatalf("engine %d: event at 11 never fired: %v", i, fired)
		}
	}
}

// TestAfterOverflow pins the behavior of After near the top of the Time
// range, on both the zero Engine and a small explicit wheel: a delay that
// still fits schedules normally, a delay that wraps panics instead of
// corrupting causality.
func TestAfterOverflow(t *testing.T) {
	const high = Time(math.MaxUint64) - 10
	for i, s := range []*Engine{{}, NewEngine(8)} {
		s.At(high, func() {})
		s.Step() // now = MaxUint64-10
		if s.Now() != high {
			t.Fatalf("engine %d: Now() = %d, want %d", i, s.Now(), high)
		}
		ran := false
		s.After(10, func() { ran = true }) // lands exactly on MaxUint64
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("engine %d: After(11) near MaxUint64 did not panic", i)
				}
			}()
			s.After(11, func() {})
		}()
		s.Run()
		if !ran {
			t.Fatalf("engine %d: event at MaxUint64 never fired", i)
		}
		if s.Now() != math.MaxUint64 {
			t.Fatalf("engine %d: final time %d, want MaxUint64", i, s.Now())
		}
	}
}

// TestWheelPastPanics pins the contract for scheduling behind the current
// time on an explicitly sized wheel (TestSchedulingPastPanics covers the
// zero Engine).
func TestWheelPastPanics(t *testing.T) {
	w := NewEngine(8)
	w.At(5, func() {})
	w.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("At(3) with now=5 did not panic")
		}
	}()
	w.At(3, func() {})
}

// BenchmarkEngineChurn models the machine's event pattern: each fired
// event schedules a successor a short latency ahead, over a population of
// concurrent chains.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Engine{}
		remaining := 200_000
		var chain func()
		chain = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			s.After(Time(13+remaining%40), chain)
		}
		for c := 0; c < 64; c++ {
			s.After(Time(c%17), chain)
		}
		s.Run()
	}
}
