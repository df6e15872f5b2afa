package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func flowOn(name string, path ...NodeID) *Flow {
	return UniformFlow(name, 36, 0, 0, 4, path...)
}

// TestRelationSameDirection covers Figure 1's case (1): flows crossing
// a shared segment in the same order.
func TestRelationSameDirection(t *testing.T) {
	fi := flowOn("i", 1, 3, 4, 5)
	fj := flowOn("j", 2, 3, 4, 7)
	r := Relate(fi, fj)
	if !r.Intersects {
		t.Fatal("must intersect")
	}
	if r.FirstJI != 3 || r.LastJI != 4 {
		t.Errorf("first/last_{j,i} = %d/%d, want 3/4", r.FirstJI, r.LastJI)
	}
	if r.FirstIJ != 3 || r.LastIJ != 4 {
		t.Errorf("first/last_{i,j} = %d/%d, want 3/4", r.FirstIJ, r.LastIJ)
	}
	if !r.SameDirection {
		t.Error("same direction expected")
	}
	if len(r.Shared) != 2 || r.Shared[0] != 3 || r.Shared[1] != 4 {
		t.Errorf("shared = %v", r.Shared)
	}
}

// TestRelationReverseDirection covers Figure 1's case (2): flows in
// reverse directions. first_{j,i} is then the far end of the shared
// segment in Pi's order.
func TestRelationReverseDirection(t *testing.T) {
	fi := flowOn("i", 1, 3, 4, 5)
	fj := flowOn("j", 7, 4, 3, 2)
	r := Relate(fi, fj)
	if r.FirstJI != 4 || r.LastJI != 3 {
		t.Errorf("first/last_{j,i} = %d/%d, want 4/3", r.FirstJI, r.LastJI)
	}
	if r.FirstIJ != 3 || r.LastIJ != 4 {
		t.Errorf("first/last_{i,j} = %d/%d, want 3/4", r.FirstIJ, r.LastIJ)
	}
	if r.SameDirection {
		t.Error("reverse direction expected")
	}
}

// TestRelationSingleSharedNode: a single shared node counts as same
// direction (first_{j,i} = first_{i,j} trivially).
func TestRelationSingleSharedNode(t *testing.T) {
	fi := flowOn("i", 1, 3, 5)
	fj := flowOn("j", 2, 3, 7)
	r := Relate(fi, fj)
	if !r.SameDirection {
		t.Error("single shared node must be same-direction")
	}
	if r.FirstJI != 3 || r.LastJI != 3 || r.FirstIJ != 3 || r.LastIJ != 3 {
		t.Error("all anchors must be the shared node")
	}
}

func TestRelationDisjoint(t *testing.T) {
	r := Relate(flowOn("i", 1, 2), flowOn("j", 8, 9))
	if r.Intersects {
		t.Error("disjoint paths must not intersect")
	}
}

// TestRelationSlowJI: slow_{j,i} maximizes the interferer's cost over
// the shared nodes only.
func TestRelationSlowJI(t *testing.T) {
	fi := flowOn("i", 1, 3, 4, 5)
	fj := &Flow{Name: "j", Period: 36, Path: Path{2, 3, 4, 7}, Cost: []Time{9, 2, 6, 9}, parent: -1}
	r := Relate(fi, fj)
	if r.SlowJI != 4 || r.CSlowJI != 6 {
		t.Errorf("slow_{j,i} = (%d,%d), want (4,6): off-segment costs must not count",
			r.SlowJI, r.CSlowJI)
	}
}

// TestPaperExampleRelations pins the relation anchors of the paper's
// example used throughout Section 5's computation.
func TestPaperExampleRelations(t *testing.T) {
	fs := PaperExample()
	cases := []struct {
		i, j             int
		firstJI, firstIJ NodeID
		sameDir          bool
	}{
		{0, 2, 3, 3, true},   // τ3 joins P1 at node 3, same direction
		{0, 4, 3, 3, true},   // τ5 likewise
		{1, 2, 7, 10, false}, // τ3 crosses P2 in reverse: enters P2 at 7; τ2 enters P3 at 10
		{1, 4, 7, 7, true},   // τ5 shares only node 7 with P2
		{2, 1, 10, 7, false}, // mirror of (1,2)
		{2, 3, 2, 2, true},   // τ4 identical path
		{4, 1, 7, 7, true},   // τ2 shares only node 7 with P5
	}
	for _, c := range cases {
		r := fs.Relation(c.i, c.j)
		if !r.Intersects {
			t.Errorf("(%d,%d): no intersection", c.i, c.j)
			continue
		}
		if r.FirstJI != c.firstJI || r.FirstIJ != c.firstIJ || r.SameDirection != c.sameDir {
			t.Errorf("(%d,%d): firstJI=%d firstIJ=%d sameDir=%v, want %d/%d/%v",
				c.i, c.j, r.FirstJI, r.FirstIJ, r.SameDirection, c.firstJI, c.firstIJ, c.sameDir)
		}
	}
	// τ1 and τ2 never meet.
	if fs.Relation(0, 1).Intersects {
		t.Error("P1 and P2 are disjoint")
	}
}

// Property: the same-direction predicate is symmetric — τj crosses Pi
// in τi's direction exactly when τi crosses Pj in τj's direction.
// Exercised over random overlapping segments of a line network.
func TestSameDirectionSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(aStart, aLen, bStart, bLen uint8, rev bool) bool {
		mk := func(start, length int, reverse bool) *Flow {
			if length < 1 {
				length = 1
			}
			p := make(Path, length)
			for k := range p {
				p[k] = NodeID(start + k)
			}
			if reverse {
				for x, y := 0, len(p)-1; x < y; x, y = x+1, y-1 {
					p[x], p[y] = p[y], p[x]
				}
			}
			return flowOn("x", p...)
		}
		fa := mk(int(aStart%12), int(aLen%6)+1, false)
		fb := mk(int(bStart%12), int(bLen%6)+1, rev)
		ra, rb := Relate(fa, fb), Relate(fb, fa)
		if ra.Intersects != rb.Intersects {
			return false
		}
		if !ra.Intersects {
			return true
		}
		return ra.SameDirection == rb.SameDirection
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: shared-segment anchors agree — first_{j,i} and last_{i,j}
// bound the same node set from both perspectives.
func TestRelationAnchorConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(aStart, aLen, bStart, bLen uint8, rev bool) bool {
		mk := func(start, length int, reverse bool) *Flow {
			if length < 1 {
				length = 1
			}
			p := make(Path, length)
			for k := range p {
				p[k] = NodeID(start + k)
			}
			if reverse {
				for x, y := 0, len(p)-1; x < y; x, y = x+1, y-1 {
					p[x], p[y] = p[y], p[x]
				}
			}
			return flowOn("x", p...)
		}
		fa := mk(int(aStart%12), int(aLen%6)+1, false)
		fb := mk(int(bStart%12), int(bLen%6)+1, rev)
		r := Relate(fa, fb)
		if !r.Intersects {
			return true
		}
		// Anchors are on both paths.
		for _, h := range []NodeID{r.FirstJI, r.LastJI, r.FirstIJ, r.LastIJ} {
			if !fa.Path.Contains(h) || !fb.Path.Contains(h) {
				return false
			}
		}
		// The shared set is symmetric.
		rb := Relate(fb, fa)
		if len(r.Shared) != len(rb.Shared) {
			return false
		}
		// first_{j,i} is the first Pi node along Pj.
		for _, h := range fb.Path {
			if fa.Path.Contains(h) {
				return h == r.FirstJI
			}
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
