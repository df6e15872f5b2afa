package trajectory

import (
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
