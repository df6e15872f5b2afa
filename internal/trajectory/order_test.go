package trajectory

import (
	"testing"

	"trajan/internal/exact"
	"trajan/internal/model"
)

// TestBoundsDependOnFlowOrder pins a deviation from PAPER.md §2: Lemma
// 2's M^h_i takes, at each earlier node of Pi, the minimum cost over
// the same-direction flows that visit it, but the engine (like the
// reference) folds into M for interferer j only the same-direction
// interferers that come before j in flow order (DESIGN.md §6.1). A
// bound can therefore move when the same flows are listed in another
// order. Here f1 crosses f0 at nodes 1–2 and f2 at nodes 3–4, both in
// its direction; listed as (f0, f1, f2) f1's bound is 41, listed as
// (f2, f1, f0) it is 40. Both lie above the exact worst case, 29
// (exact.Verify, 3 packets per flow), so both are sound; which order
// the paper's M gives is a separate question (docs/THEORY.md, Lemma 2).
func TestBoundsDependOnFlowOrder(t *testing.T) {
	flow := func(name string, period model.Time, path model.Path, cost ...model.Time) *model.Flow {
		f := model.UniformFlow(name, period, 0, 0, 1, path...)
		f.Cost = cost
		return f
	}
	f0 := flow("f0", 26, model.Path{1, 2}, 4, 5)
	f1 := flow("f1", 14, model.Path{0, 1, 2, 3, 4}, 5, 5, 3, 5, 1)
	f2 := flow("f2", 12, model.Path{3, 4}, 2, 5)
	bound := func(flows ...*model.Flow) model.Time {
		t.Helper()
		fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceAnalyze(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Bounds[1] != res.Bounds[1] {
			t.Fatalf("engine %d, reference %d", res.Bounds[1], ref.Bounds[1])
		}
		return res.Bounds[1]
	}
	fwd, rev := bound(f0, f1, f2), bound(f2, f1, f0)
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f0, f1, f2})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.Verify(fs, exact.Options{Packets: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("f1: %d in order (f0, f1, f2), %d in order (f2, f1, f0), exact %d", fwd, rev, ex.Worst[1])
	if fwd != 41 || rev != 40 || ex.Worst[1] != 29 {
		t.Fatalf("f1: %d in order (f0, f1, f2), %d in order (f2, f1, f0), exact %d; want 41, 40 and 29", fwd, rev, ex.Worst[1])
	}
}
