package trajectory

import (
	"errors"
	"strings"
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

// TestFillFromBounds: the global-tail table is R − tailmin clamped at
// Smin.
func TestFillFromBounds(t *testing.T) {
	fs := model.PaperExample()
	tab := newSmaxTable(fs)
	bounds := []model.Time{31, 43, 53, 53, 44}
	tab.fillFromBounds(fs, bounds)
	// τ1 at node 3: tailmin = 4 + (1+4) + (1+4) = 14 → 31−14 = 17.
	if got, _ := tab.at(fs, 0, 3); got != 17 {
		t.Errorf("tail Smax(τ1,3) = %d, want 17", got)
	}
	// τ3 at node 10: tailmin = 4 + (1+4) = 9 → 53−9 = 44.
	if got, _ := tab.at(fs, 2, 10); got != 44 {
		t.Errorf("tail Smax(τ3,10) = %d, want 44", got)
	}
	// Clamping: with a tiny bound, Smax falls back to Smin.
	tab.fillFromBounds(fs, []model.Time{1, 1, 1, 1, 1})
	smin, err := fs.Smin(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.at(fs, 0, 3); got != smin {
		t.Errorf("clamped Smax = %d, want Smin %d", got, smin)
	}
}

// TestBusyPeriodSeedSound: on the example, the seed must dominate the
// trajectory bounds (it is the crudest of the sound analyses) and be
// finite.
func TestBusyPeriodSeedSound(t *testing.T) {
	fs := model.PaperExample()
	seed, err := BusyPeriodSeed(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traj := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		if seed[i] < traj.Bounds[i] {
			t.Errorf("flow %d: seed %d below trajectory bound %d", i, seed[i], traj.Bounds[i])
		}
	}
}

// TestBusyPeriodSeedSingleFlow: for a lone flow the seed equals the
// per-node costs plus links (each node's busy period is one packet).
func TestBusyPeriodSeedSingleFlow(t *testing.T) {
	f := model.UniformFlow("f", 100, 3, 0, 4, 1, 2, 3)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	seed, err := BusyPeriodSeed(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := model.Time(3 + 3*4 + 2*1); seed[0] != want {
		t.Errorf("seed = %d, want %d", seed[0], want)
	}
}

// TestBusyPeriodSeedOverload: utilization ≥ 1 must be reported.
func TestBusyPeriodSeedOverload(t *testing.T) {
	f1 := model.UniformFlow("f1", 4, 0, 0, 3, 1)
	f2 := model.UniformFlow("f2", 4, 0, 0, 3, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	if _, err := BusyPeriodSeed(fs, Options{}); err == nil {
		t.Error("overloaded seed accepted")
	}
}

// TestGlobalTailConvergence: the iteration reaches a fixed point and
// reports it.
func TestGlobalTailConvergence(t *testing.T) {
	fs := model.PaperExample()
	_, sweeps, converged, err := globalTail(fs, Options{Smax: SmaxGlobalTail})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Errorf("global tail did not converge in %d sweeps", sweeps)
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

// TestParseSmaxMode: the three -smax spellings map onto their modes;
// anything else is a configuration error naming the value.
func TestParseSmaxMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SmaxMode
	}{
		{"prefix", SmaxPrefixFixpoint},
		{"tail", SmaxGlobalTail},
		{"noqueue", SmaxNoQueue},
	} {
		got, err := ParseSmaxMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSmaxMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	_, err := ParseSmaxMode("bogus")
	if !errors.Is(err, model.ErrInvalidConfig) || !strings.Contains(err.Error(), `unknown -smax "bogus"`) {
		t.Errorf("ParseSmaxMode(bogus) error %v, want ErrInvalidConfig naming the value", err)
	}
}
