package mesh

import (
	"testing"
	"testing/quick"

	"dircoh/internal/obs"
)

func TestDims(t *testing.T) {
	cases := []struct{ nodes, w, h int }{
		{1, 1, 1},
		{4, 2, 2},
		{16, 4, 4},
		{32, 6, 6}, // 6x6=36 >= 32; cannot shrink to 5x6=30
		{12, 4, 3},
		{64, 8, 8},
		{15, 4, 4},
	}
	for _, c := range cases {
		m := New(Config{Nodes: c.nodes, Base: 1, PerHop: 1})
		w, h := m.Dims()
		if w*h < c.nodes {
			t.Errorf("nodes=%d: %dx%d does not fit", c.nodes, w, h)
		}
		if w != c.w || h != c.h {
			t.Errorf("nodes=%d: dims = %dx%d, want %dx%d", c.nodes, w, h, c.w, c.h)
		}
	}
}

func TestHops(t *testing.T) {
	m := New(Config{Nodes: 16, Base: 5, PerHop: 2}) // 4x4
	if got := m.Hops(0, 0); got != 0 {
		t.Fatalf("Hops(0,0) = %d", got)
	}
	if got := m.Hops(0, 3); got != 3 { // same row
		t.Fatalf("Hops(0,3) = %d, want 3", got)
	}
	if got := m.Hops(0, 15); got != 6 { // corner to corner
		t.Fatalf("Hops(0,15) = %d, want 6", got)
	}
	if got := m.Hops(5, 10); got != 2 { // (1,1)->(2,2)
		t.Fatalf("Hops(5,10) = %d, want 2", got)
	}
}

func TestLatencyAndSend(t *testing.T) {
	m := New(Config{Nodes: 16, Base: 10, PerHop: 2})
	if got := m.Latency(0, 15); got != 10+6*2 {
		t.Fatalf("Latency = %d, want 22", got)
	}
	if m.Stats().Messages != 0 {
		t.Fatal("Latency must not record traffic")
	}
	lat := m.Send(0, 15)
	if lat != 22 {
		t.Fatalf("Send latency = %d, want 22", lat)
	}
	st := m.Stats()
	if st.Messages != 1 || st.Hops != 6 || st.MaxHops != 6 {
		t.Fatalf("stats = %+v", st)
	}
	m.Send(0, 1)
	if got := m.AvgHops(); got != 3.5 {
		t.Fatalf("AvgHops = %v, want 3.5", got)
	}
}

func TestAvgHopsEmpty(t *testing.T) {
	m := New(Config{Nodes: 4})
	if m.AvgHops() != 0 {
		t.Fatal("AvgHops on empty mesh should be 0")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(Config{Nodes: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Hops(0, 4)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Nodes: 0})
}

func TestSendAtWithoutPortTime(t *testing.T) {
	m := New(Config{Nodes: 4, Base: 10, PerHop: 2})
	if got := m.SendAt(100, 0, 1); got != 100+12 {
		t.Fatalf("SendAt = %d, want 112", got)
	}
	// Back-to-back sends do not queue without PortTime.
	if got := m.SendAt(100, 0, 1); got != 112 {
		t.Fatalf("second SendAt = %d, want 112", got)
	}
	if m.Stats().Stalls != 0 {
		t.Fatal("no stalls expected")
	}
}

func TestSendAtPortContention(t *testing.T) {
	m := New(Config{Nodes: 4, Base: 10, PerHop: 2, PortTime: 5})
	first := m.SendAt(100, 0, 1)
	if first != 112 {
		t.Fatalf("first = %d, want 112", first)
	}
	second := m.SendAt(100, 2, 1) // same destination, same instant
	if second != first+5 {
		t.Fatalf("second = %d, want %d (queued behind the port)", second, first+5)
	}
	// A different destination is unaffected.
	if got := m.SendAt(100, 0, 2); got != 112 {
		t.Fatalf("other dest = %d, want 112", got)
	}
	if m.Stats().Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", m.Stats().Stalls)
	}
	// After the burst drains, delivery is latency-bound again.
	if got := m.SendAt(1000, 0, 1); got != 1012 {
		t.Fatalf("post-burst = %d, want 1012", got)
	}
}

// TestMinLatencyMatchesBruteForce checks MinLatency against the minimum
// over every ordered pair of distinct endpoints, on square, non-square and
// single-node meshes.
func TestMinLatencyMatchesBruteForce(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 12, 15, 16, 30, 64} {
		m := New(Config{Nodes: nodes, Base: 7, PerHop: 3})
		want, found := ^uint64(0), false
		for a := 0; a < nodes; a++ {
			for b := 0; b < nodes; b++ {
				if a != b && m.Latency(a, b) < want {
					want, found = m.Latency(a, b), true
				}
			}
		}
		got, ok := m.MinLatency()
		if ok != found || (ok && got != want) {
			t.Errorf("nodes=%d: MinLatency = (%d, %v), brute force (%d, %v)", nodes, got, ok, want, found)
		}
	}
}

// TestForkSharesPorts: a fork counts its own traffic but queues behind the
// parent's ejection-port bookings.
func TestForkSharesPorts(t *testing.T) {
	m := New(Config{Nodes: 4, Base: 10, PerHop: 2, PortTime: 5})
	f := m.Fork(obs.NewRegistry())
	first := m.SendAt(100, 0, 1)
	if second := f.SendAt(100, 2, 1); second != first+5 {
		t.Fatalf("fork delivery = %d, want %d (queued behind the parent's booking)", second, first+5)
	}
	if m.Stats().Messages != 1 || f.Stats().Messages != 1 || f.Stats().Stalls != 1 {
		t.Fatalf("parent %+v, fork %+v: want one message each, the stall on the fork", m.Stats(), f.Stats())
	}
}

// Property: hops form a metric — symmetric, zero iff equal (for distinct
// coordinates), triangle inequality.
func TestQuickHopsMetric(t *testing.T) {
	m := New(Config{Nodes: 30, Base: 1, PerHop: 1})
	f := func(ar, br, cr uint8) bool {
		a, b, c := int(ar)%30, int(br)%30, int(cr)%30
		if m.Hops(a, b) != m.Hops(b, a) {
			return false
		}
		if a == b && m.Hops(a, b) != 0 {
			return false
		}
		if a != b && m.Hops(a, b) == 0 {
			return false
		}
		return m.Hops(a, c) <= m.Hops(a, b)+m.Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
