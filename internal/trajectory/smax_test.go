package trajectory

import (
	"reflect"
	"testing"

	"trajan/internal/model"
)

// TestNoQueueSmaxValues: the queueing-free table is processing plus
// Lmax per upstream link.
func TestNoQueueSmaxValues(t *testing.T) {
	fs := model.PaperExample()
	tab := newSmaxTable(fs)
	tab.fillNoQueue(fs)
	cases := []struct {
		flow int
		node model.NodeID
		want model.Time
	}{
		{0, 1, 0},
		{0, 3, 5},
		{0, 5, 15},
		{2, 10, 20},
	}
	for _, c := range cases {
		got, err := tab.at(fs, c.flow, c.node)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("noqueue Smax(%d,%d) = %d, want %d", c.flow, c.node, got, c.want)
		}
	}
	if _, err := tab.at(fs, 0, 9); err == nil {
		t.Error("off-path Smax lookup accepted")
	}
}

// TestPrefixFixpointDominatesNoQueue: queueing can only delay arrival.
func TestPrefixFixpointDominatesNoQueue(t *testing.T) {
	fs := model.PaperExample()
	nq := newSmaxTable(fs)
	nq.fillNoQueue(fs)
	pf, sweeps, converged, err := prefixFixpoint(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !converged || sweeps < 2 {
		t.Errorf("prefix fixpoint: sweeps=%d converged=%v", sweeps, converged)
	}
	for i, f := range fs.Flows {
		for k := range f.Path {
			if pf[i][k] < nq[i][k] {
				t.Errorf("flow %d node %d: prefix %d < noqueue %d", i, k, pf[i][k], nq[i][k])
			}
		}
	}
}

// TestPrefixFixpointValues pins the worked values of EXPERIMENTS.md:
// Smax^7_2 = R(τ2 on [9,10]) + Lmax = 18 and Smax^10_3 = 36.
func TestPrefixFixpointValues(t *testing.T) {
	fs := model.PaperExample()
	pf, _, _, err := prefixFixpoint(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flow int
		node model.NodeID
		want model.Time
	}{
		{1, 7, 18},  // τ2 reaching node 7
		{2, 10, 36}, // τ3 reaching node 10
		{2, 3, 13},  // τ3 reaching node 3: R(τ3 on [2]) = 12, +Lmax
		{0, 3, 5},   // τ1 reaching node 3: alone on node 1
	}
	for _, c := range cases {
		got, err := pf.at(fs, c.flow, c.node)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("prefix Smax(τ%d,%d) = %d, want %d", c.flow+1, c.node, got, c.want)
		}
	}
}

// TestSmaxTableCloneEqual: table utilities used by the fixpoints.
func TestSmaxTableCloneEqual(t *testing.T) {
	fs := model.PaperExample()
	a := newSmaxTable(fs)
	a.fillNoQueue(fs)
	b := a.clone()
	if !a.equal(b) {
		t.Fatal("clone not equal")
	}
	b[0][1]++
	if a.equal(b) {
		t.Fatal("mutation not detected")
	}
	if a[0][1] == b[0][1] {
		t.Fatal("clone shares storage")
	}
}

// TestSmaxLeastOfTwoFixedPoints pins the smallest known set whose
// prefix operator F — Property 2 on every prefix view plus Lmax,
// floored at the no-queue table — has two fixed points: the engine
// serves the least one, reached by climbing from the floor, and a
// second, larger table maps to itself too, with larger bounds. f0 and
// f2 cross nodes 1 and 2 in opposite directions. Whether the least
// fixed point is sound here is open (ROADMAP item 1).
func TestSmaxLeastOfTwoFixedPoints(t *testing.T) {
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("f0", 19, 3, 0, 5, 2, 1, 0),
		model.UniformFlow("f1", 10, 1, 0, 2, 0, 1),
		model.UniformFlow("f2", 17, 3, 0, 5, 0, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAnalyzer(fs, Options{})
	res, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	least := smaxTable{{3, 19, 37}, {1, 20}, {3, 21, 32}}
	if got := smaxTable(res.ArrivalBounds); !got.equal(least) {
		t.Fatalf("served Smax %v, want %v", got, least)
	}
	if want := []model.Time{56, 30, 42}; !reflect.DeepEqual(res.Bounds, want) {
		t.Fatalf("served bounds %v, want %v", res.Bounds, want)
	}

	// F applied to a table, and the full-path bounds under it.
	apply := func(s smaxTable) (smaxTable, []model.Time) {
		next := newSmaxTable(fs)
		next.fillNoQueue(fs)
		bounds := make([]model.Time, fs.N())
		for i, f := range fs.Flows {
			for k := 1; k < len(f.Path); k++ {
				r, err := boundForView(fs, Options{}, prefixView(fs, i, k), s)
				if err != nil {
					t.Fatal(err)
				}
				next[i][k] = max(next[i][k], r+fs.Net.Lmax)
			}
			r, err := boundForView(fs, Options{}, fullView(fs, i), s)
			if err != nil {
				t.Fatal(err)
			}
			bounds[i] = r
		}
		return next, bounds
	}
	if got, bounds := apply(least); !got.equal(least) || !reflect.DeepEqual(bounds, res.Bounds) {
		t.Fatalf("F(served) = %v with bounds %v, want the served table and bounds", got, bounds)
	}
	upper := smaxTable{{3, 19, 41}, {1, 20}, {3, 21, 36}}
	got, bounds := apply(upper)
	if !got.equal(upper) {
		t.Fatalf("F(%v) = %v, want a second fixed point", upper, got)
	}
	if want := []model.Time{57, 34, 47}; !reflect.DeepEqual(bounds, want) {
		t.Fatalf("bounds at the upper fixed point %v, want %v", bounds, want)
	}
}
