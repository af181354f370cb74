package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dircoh/internal/bitset"
)

// refModel is the golden semantics every Entry must refine: the exact
// sharer set and dirty/owner state a perfect directory would keep.
type refModel struct {
	sharers map[NodeID]bool
	dirty   bool
	owner   NodeID
}

func newRefModel() *refModel {
	return &refModel{sharers: map[NodeID]bool{}, owner: None}
}

func (r *refModel) set(n int) bitset.Set {
	s := bitset.New(n)
	for k := range r.sharers {
		s.Add(k)
	}
	return s
}

// conformanceTrial drives one entry of s through steps random operations
// against the golden model and checks, after every step, the refinement
// obligations:
//
//  1. Sharers() ⊇ golden sharers (invalidation safety).
//  2. Dirty/Owner match the golden state exactly.
//  3. While Precise(), Sharers() == golden sharers exactly.
//  4. Empty() implies the golden state is empty.
func conformanceTrial(t *testing.T, s Scheme, rng *rand.Rand, steps int) {
	t.Helper()
	nodes := s.Nodes()
	e := s.NewEntry()
	ref := newRefModel()
	for step := 0; step < steps; step++ {
		n := NodeID(rng.Intn(nodes))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // read: add a sharer
			// The protocol downgrades a dirty entry before
			// adding sharers (evServeRead); mirror it.
			if e.Dirty() {
				e.ClearDirty()
				ref.dirty = false
				ref.owner = None
			}
			ev := e.AddSharer(n)
			ref.sharers[n] = true
			for _, v := range ev {
				delete(ref.sharers, v)
			}
		case 5, 6, 7: // write: exclusive ownership
			e.SetDirty(n)
			ref.sharers = map[NodeID]bool{n: true}
			ref.dirty = true
			ref.owner = n
		case 8: // downgrade
			if e.Dirty() {
				e.ClearDirty()
				ref.dirty = false
				ref.owner = None
			}
		case 9: // precise removal
			if e.Precise() {
				e.RemoveSharer(n)
				delete(ref.sharers, n)
			}
		}
		if e.Dirty() != ref.dirty {
			t.Fatalf("step %d: Dirty = %v, golden %v", step, e.Dirty(), ref.dirty)
		}
		if ref.dirty && e.Owner() != ref.owner {
			t.Fatalf("step %d: Owner = %d, golden %d", step, e.Owner(), ref.owner)
		}
		golden := ref.set(nodes)
		if !e.Sharers().SupersetOf(golden) {
			t.Fatalf("step %d: Sharers %v not superset of golden %v",
				step, e.Sharers(), golden)
		}
		if e.Precise() && !e.Sharers().Equal(golden) {
			t.Fatalf("step %d: precise entry %v != golden %v",
				step, e.Sharers(), golden)
		}
		if e.Empty() && (len(ref.sharers) != 0 || ref.dirty) {
			t.Fatalf("step %d: Empty but golden has state", step)
		}
	}
}

// TestReferenceModelConformance drives every scheme through long random
// operation sequences against the golden model at a small machine size.
func TestReferenceModelConformance(t *testing.T) {
	const nodes = 24
	for _, s := range allSchemes(nodes) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 30; trial++ {
				conformanceTrial(t, s, rng, 200)
			}
		})
	}
}

// scaleSchemes is the large-machine differential roster: one scheme per
// compact-encoding family, with region sizes that track the machine (the
// adaptive two-level geometry and a matching coarse vector) so the packed
// representations are exercised at the widths they exist for.
func scaleSchemes(n int) []Scheme {
	r := AdaptiveRegion(n)
	return []Scheme{
		Must(NewFullVector(n)),
		Must(NewLimitedBroadcast(3, n)),
		Must(NewLimitedNoBroadcast(3, n, VictimOldest, 1)),
		Must(NewSuperset(2, n)),
		Must(NewCoarseVector(3, 2, n)),
		Must(NewCoarseVector(4, r, n)),
		Must(NewTwoLevel(4, r, n)),
		Must(MustParse("tl")(n)),
	}
}

// TestReferenceModelConformanceAtScale runs the same differential check
// at the beyond-64 sizes the compact encodings exist for. Fewer, shorter
// trials than the 24-node test: the point is width-dependent packing bugs
// (word boundaries, region arithmetic, pointer overflow at thousands of
// nodes), which surface early in a trial or not at all.
func TestReferenceModelConformanceAtScale(t *testing.T) {
	for _, nodes := range []int{64, 1024, 4096} {
		for _, s := range scaleSchemes(nodes) {
			s := s
			t.Run(fmt.Sprintf("n%d/%s", nodes, s.Name()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(nodes)))
				for trial := 0; trial < 5; trial++ {
					conformanceTrial(t, s, rng, 150)
				}
			})
		}
	}
}

// TestReferenceModelPopGrantDrain checks that repeatedly popping grants
// from any representation eventually empties it and that every popped
// node was in the candidate set at pop time.
func TestReferenceModelPopGrantDrain(t *testing.T) {
	const nodes = 24
	rng := rand.New(rand.NewSource(9))
	for _, s := range allSchemes(nodes) {
		for trial := 0; trial < 20; trial++ {
			e := s.NewEntry()
			k := 1 + rng.Intn(nodes)
			for i := 0; i < k; i++ {
				e.AddSharer(NodeID(rng.Intn(nodes)))
			}
			for rounds := 0; rounds < nodes+2; rounds++ {
				before := e.Sharers()
				g := e.PopGrant()
				if g == nil {
					break
				}
				for _, n := range g {
					if !before.Contains(n) {
						t.Fatalf("%s: granted %d not in candidate set %v", s.Name(), n, before)
					}
				}
			}
			if e.Count() != 0 {
				t.Fatalf("%s: %d candidates left after full drain", s.Name(), e.Count())
			}
		}
	}
}
