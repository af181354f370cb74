package cache

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func small() *Cache { return NewCache(64, 16, 2) } // 4 lines, 2 sets of 2

func TestNewCacheGeometry(t *testing.T) {
	c := NewCache(256<<10, 16, 1)
	if c.Lines() != 16384 {
		t.Fatalf("Lines = %d, want 16384", c.Lines())
	}
}

func TestNewCachePanics(t *testing.T) {
	cases := []func(){
		func() { NewCache(0, 16, 1) },
		func() { NewCache(64, 0, 1) },
		func() { NewCache(64, 16, 0) },
		func() { NewCache(48, 16, 2) }, // 3 lines not divisible by 2-way
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFillLookupInvalidate(t *testing.T) {
	c := small()
	if c.State(5) != Invalid {
		t.Fatal("expected Invalid for absent block")
	}
	v := c.Fill(5, Shared, 1)
	if v.Valid {
		t.Fatal("no victim expected")
	}
	if c.State(5) != Shared {
		t.Fatal("expected Shared")
	}
	c.SetState(5, Dirty)
	if c.State(5) != Dirty {
		t.Fatal("expected Dirty")
	}
	p, d := c.Invalidate(5)
	if !p || !d {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", p, d)
	}
	if c.State(5) != Invalid {
		t.Fatal("still present after Invalidate")
	}
	p, d = c.Invalidate(5)
	if p || d {
		t.Fatal("second Invalidate should be a no-op")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 sets; even blocks -> set 0
	c.Fill(0, Shared, 1)
	c.Fill(2, Shared, 2)
	c.Touch(0, 3) // 2 becomes LRU
	v := c.Fill(4, Dirty, 4)
	if !v.Valid || v.Block != 2 || v.Dirty {
		t.Fatalf("victim = %+v, want clean block 2", v)
	}
	if c.State(0) != Shared || c.State(4) != Dirty {
		t.Fatal("wrong contents after eviction")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small()
	c.Fill(0, Dirty, 1)
	c.Fill(2, Shared, 2)
	v := c.Fill(4, Shared, 3)
	if !v.Valid || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
}

func TestFillPresentUpdatesState(t *testing.T) {
	c := small()
	c.Fill(0, Shared, 1)
	v := c.Fill(0, Dirty, 2)
	if v.Valid {
		t.Fatal("re-fill must not evict")
	}
	if c.State(0) != Dirty {
		t.Fatal("re-fill should update state")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", c.Occupancy())
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Fill(0, Dirty, 1)
	if !c.Downgrade(0) {
		t.Fatal("Downgrade of dirty line should report true")
	}
	if c.State(0) != Shared {
		t.Fatal("expected Shared after Downgrade")
	}
	if c.Downgrade(0) {
		t.Fatal("Downgrade of shared line should report false")
	}
	if c.Downgrade(99) {
		t.Fatal("Downgrade of absent line should report false")
	}
}

func TestSetStateAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	small().SetState(123, Dirty)
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Dirty.String() != "D" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func hier() *Hierarchy {
	return NewHierarchy(Config{L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 2, Block: 16})
}

func TestHierarchyMissFillHit(t *testing.T) {
	h := hier()
	if r := h.Access(7, false, 1); r != Miss {
		t.Fatalf("first read = %v, want Miss", r)
	}
	h.Fill(7, Shared, 1)
	if r := h.Access(7, false, 2); r != Hit {
		t.Fatalf("second read = %v, want Hit", r)
	}
	st := h.Stats()
	if st.Reads != 2 || st.Misses != 1 || st.L1Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHierarchyWriteUpgrade(t *testing.T) {
	h := hier()
	h.Fill(7, Shared, 1)
	if r := h.Access(7, true, 2); r != MissUpgrade {
		t.Fatalf("write on shared = %v, want MissUpgrade", r)
	}
	h.Upgrade(7, 2)
	if r := h.Access(7, true, 3); r != Hit {
		t.Fatalf("write on dirty = %v, want Hit", r)
	}
	if h.State(7) != Dirty {
		t.Fatal("expected Dirty in L2")
	}
}

func TestHierarchyInclusionOnL2Eviction(t *testing.T) {
	// L1: 4 lines direct; L2: 8 lines 2-way (4 sets).
	h := NewHierarchy(Config{L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 2, Block: 16})
	// Blocks 0, 4, 8 map to L2 set 0 (8 lines/2-way = 4 sets).
	h.Fill(0, Dirty, 1)
	h.Fill(4, Shared, 2)
	v := h.Fill(8, Shared, 3) // evicts block 0 (LRU) from L2
	if !v.Valid || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
	// Inclusion: block 0 must be gone from L1 too.
	if r := h.Access(0, false, 4); r != Miss {
		t.Fatalf("evicted block should miss, got %v", r)
	}
	st := h.Stats()
	if st.Evictions != 1 || st.DirtyEv != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHierarchyL1DirtyFoldsIntoL2(t *testing.T) {
	// L1 direct-mapped 4 lines: blocks 0 and 4 conflict in L1 but
	// coexist in 2-way L2 set 0.
	h := NewHierarchy(Config{L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 2, Block: 16})
	h.Fill(0, Dirty, 1)
	h.Fill(4, Shared, 2) // L1 evicts dirty 0; L2 keeps it, must stay Dirty
	if h.State(0) != Dirty {
		t.Fatal("L1 dirty victim state lost")
	}
	// A later L2 eviction of 0 must report dirty.
	v := h.Fill(8, Shared, 3)
	if !v.Valid || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
}

func TestHierarchyL2HitRefillsL1(t *testing.T) {
	h := NewHierarchy(Config{L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 2, Block: 16})
	h.Fill(0, Shared, 1)
	h.Fill(4, Shared, 2) // evicts 0 from L1 only
	if r := h.Access(0, false, 3); r != Hit {
		t.Fatalf("read = %v, want Hit from L2", r)
	}
	if h.Stats().L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want 1", h.Stats().L2Hits)
	}
}

func TestHierarchyInvalidateAndDowngrade(t *testing.T) {
	h := hier()
	h.Fill(3, Dirty, 1)
	if !h.Downgrade(3) {
		t.Fatal("Downgrade should report dirty")
	}
	if h.State(3) != Shared {
		t.Fatal("expected Shared")
	}
	p, d := h.Invalidate(3)
	if !p || d {
		t.Fatalf("Invalidate = (%v,%v), want (true,false)", p, d)
	}
	if h.State(3) != Invalid {
		t.Fatal("expected Invalid")
	}
}

func TestHierarchyInclusionViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHierarchy(Config{L1Size: 128, L1Assoc: 1, L2Size: 64, L2Assoc: 1, Block: 16})
}

func TestDefaultConfig(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	if h.Lines() != (256<<10)/16 {
		t.Fatalf("Lines = %d", h.Lines())
	}
}

// Property: inclusion — any block readable via Access is present in L2;
// and Invalidate always removes it from both levels.
func TestQuickInclusion(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewHierarchy(Config{L1Size: 64, L1Assoc: 1, L2Size: 256, L2Assoc: 2, Block: 16})
		for i, op := range ops {
			b := int64(op % 64)
			switch op >> 14 {
			case 0: // read
				if h.Access(b, false, uint64(i)) == Miss {
					h.Fill(b, Shared, uint64(i))
				}
			case 1: // write
				switch h.Access(b, true, uint64(i)) {
				case Miss:
					h.Fill(b, Dirty, uint64(i))
				case MissUpgrade:
					h.Upgrade(b, uint64(i))
				}
			case 2:
				h.Invalidate(b)
				if h.State(b) != Invalid {
					return false
				}
			case 3:
				h.Downgrade(b)
			}
			// Inclusion: L1 content must be a subset of L2 content —
			// probe via the public API: a block that hits for read must
			// be in L2.
			if h.Access(b, false, uint64(i)) != Miss && h.State(b) == Invalid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// flatCache is the oracle for the paged Cache: the original flat-array
// implementation, every line allocated up front.
type flatCache struct {
	sets, assoc int
	lines       []line
}

func newFlat(sets, assoc int) *flatCache {
	return &flatCache{sets: sets, assoc: assoc, lines: make([]line, sets*assoc)}
}

func (c *flatCache) set(block int64) []line {
	si := int(uint64(block) % uint64(c.sets))
	return c.lines[si*c.assoc : (si+1)*c.assoc]
}

func (c *flatCache) find(block int64) *line {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

func (c *flatCache) fill(block int64, st State, now uint64) Victim {
	if l := c.find(block); l != nil {
		l.state, l.lastUse = st, now
		return Victim{}
	}
	set := c.set(block)
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	var v Victim
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[vi].lastUse {
				vi = i
			}
		}
		v = Victim{Valid: true, Block: set[vi].block, Dirty: set[vi].state == Dirty}
	}
	set[vi] = line{valid: true, block: block, state: st, lastUse: now}
	return v
}

type entry struct {
	block int64
	st    State
}

func contents(forEach func(func(int64, State))) []entry {
	var out []entry
	forEach(func(b int64, st State) { out = append(out, entry{b, st}) })
	return out
}

func (c *flatCache) forEach(fn func(int64, State)) {
	for _, l := range c.lines {
		if l.valid {
			fn(l.block, l.state)
		}
	}
}

// TestQuickPagedMatchesFlat drives the paged Cache and the flat oracle
// with the same random Fill/Touch/SetState/Invalidate/Downgrade stream
// and requires identical states, victims, ForEach contents (in order)
// and occupancy, across associativities 1-4 and set counts below, equal
// to, and not a multiple of the page size.
func TestQuickPagedMatchesFlat(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 4} {
		for _, sets := range []int{1, 5, pageSets, pageSets + 7, 2*pageSets + 1, 3 * pageSets} {
			t.Run(fmt.Sprintf("assoc%d/sets%d", assoc, sets), func(t *testing.T) {
				f := func(ops []uint32) bool {
					c, ref := NewCache(sets*assoc*16, 16, assoc), newFlat(sets, assoc)
					span := uint32(3 * sets * assoc)
					for i, op := range ops {
						b, now := int64(op>>3%span), uint64(i/3) // ties exercise the LRU tie-break
						st := State(1 + op>>2&1)
						switch op & 7 {
						case 0, 1, 2:
							if got, want := c.Fill(b, st, now), ref.fill(b, st, now); got != want {
								t.Logf("op %d Fill(%d): victim %+v, want %+v", i, b, got, want)
								return false
							}
						case 3:
							c.Touch(b, now)
							if l := ref.find(b); l != nil {
								l.lastUse = now
							}
						case 4:
							if l := ref.find(b); l != nil {
								c.SetState(b, st)
								l.state = st
							}
						case 5:
							l := ref.find(b)
							p, d := c.Invalidate(b)
							if p != (l != nil) || d != (l != nil && l.state == Dirty) {
								return false
							}
							if l != nil {
								l.valid = false
							}
						default:
							l := ref.find(b)
							wantDirty := l != nil && l.state == Dirty
							if c.Downgrade(b) != wantDirty {
								return false
							}
							if wantDirty {
								l.state = Shared
							}
						}
						want := Invalid
						if l := ref.find(b); l != nil {
							want = l.state
						}
						if c.State(b) != want {
							t.Logf("op %d: State(%d) = %v, want %v", i, b, c.State(b), want)
							return false
						}
					}
					got, want := contents(c.ForEach), contents(ref.forEach)
					return slices.Equal(got, want) && c.Occupancy() == len(want) && c.Lines() == len(ref.lines)
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLineSize pins the 24-byte line: a field order that pads it back
// to 32 bytes costs a third more memory per touched page.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 24 {
		t.Fatalf("line is %d bytes, want 24", n)
	}
}

// allocBytes returns the fewest heap bytes fn allocated over a few runs
// (the minimum filters out runtime background allocation).
func allocBytes(fn func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// TestHierarchyMemoryGrowsWithUse pins that cache storage follows the
// sets a run touches: building the default hierarchy allocates only the
// page tables (an eager build allocates every line, 480 KB at 24 B per
// line), one Fill allocates at most one page per level, and a hit
// allocates nothing.
func TestHierarchyMemoryGrowsWithUse(t *testing.T) {
	cfg := DefaultConfig()
	if n := allocBytes(func() { NewHierarchy(cfg) }); n > 16<<10 {
		t.Errorf("NewHierarchy(DefaultConfig()) allocates %d bytes, want <= 16 KB", n)
	}
	page := uint64(pageSets * unsafe.Sizeof(line{}))
	hs := []*Hierarchy{NewHierarchy(cfg), NewHierarchy(cfg), NewHierarchy(cfg)}
	i := 0
	if n := allocBytes(func() { hs[i].Fill(7, Shared, 1); i++ }); n > page*uint64(cfg.L1Assoc+cfg.L2Assoc) {
		t.Errorf("one Fill allocates %d bytes, want at most one %d-byte page per level", n, page)
	}
	h := NewHierarchy(cfg)
	h.Fill(42, Shared, 0)
	if n := testing.AllocsPerRun(100, func() { h.Access(42, false, 1) }); n != 0 {
		t.Errorf("Access on a hit allocates %.1f objects", n)
	}
}
