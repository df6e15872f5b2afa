package holistic

import (
	"strings"
	"testing"

	"trajan/internal/model"
)

func mustAnalyze(t *testing.T, fs *model.FlowSet, opt Options) *Result {
	t.Helper()
	res, err := Analyze(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenPaperExample locks this implementation's holistic bounds on
// the example. The paper reports (43, 63, 73, 73, 56) without giving
// its holistic recipe; our full busy-period variant is more pessimistic
// on the long flows. The headline comparison nevertheless reproduces:
// no flow meets its deadline under the holistic analysis, all do under
// the trajectory analysis, and the improvement exceeds 25% everywhere.
func TestGoldenPaperExample(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	want := []model.Time{43, 59, 113, 113, 80}
	for i, w := range want {
		if res.Bounds[i] != w {
			t.Errorf("holistic R(%s) = %d, want %d", fs.Flows[i].Name, res.Bounds[i], w)
		}
	}
	// τ1's holistic bound matches the paper exactly.
	if res.Bounds[0] != model.PaperHolisticBounds[0] {
		t.Errorf("R(τ1) = %d, paper %d", res.Bounds[0], model.PaperHolisticBounds[0])
	}
	// The paper's infeasibility claim: no flow meets its deadline.
	for i, f := range fs.Flows {
		if res.Bounds[i] <= f.Deadline {
			t.Errorf("%s: holistic bound %d within deadline %d — paper expects infeasible",
				f.Name, res.Bounds[i], f.Deadline)
		}
	}
}

// TestSingleFlowExact: a lone flow sees no queueing anywhere.
func TestSingleFlowExact(t *testing.T) {
	f := model.UniformFlow("f", 100, 7, 0, 4, 1, 2, 3)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	res := mustAnalyze(t, fs, Options{})
	if want := model.Time(7 + 3*4 + 2*1); res.Bounds[0] != want {
		t.Errorf("bound %d, want %d", res.Bounds[0], want)
	}
}

// TestTwoFlowsOneNode: both packets back to back, same as trajectory.
func TestTwoFlowsOneNode(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		if res.Bounds[i] != 6 {
			t.Errorf("flow %d: %d, want 6", i, res.Bounds[i])
		}
	}
}

// TestHolisticPessimismOnTandem: on the two-flow tandem the holistic
// analysis recounts the interferer on the second node (the jointly
// impossible scenario), exceeding the trajectory's exact 10.
func TestHolisticPessimismOnTandem(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res := mustAnalyze(t, fs, Options{})
	if res.Bounds[0] <= 10 {
		t.Errorf("holistic tandem bound %d; expected pessimism above the exact 10", res.Bounds[0])
	}
}

// TestJitterDefinition2: reported jitter follows Definition 2.
func TestJitterDefinition2(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i, f := range fs.Flows {
		if res.Jitters[i] != res.Bounds[i]-f.MinTraversal(fs.Net.Lmin) {
			t.Errorf("%s: jitter %d", f.Name, res.Jitters[i])
		}
	}
}

// TestOverloadDetected: a saturated node errors out.
func TestOverloadDetected(t *testing.T) {
	f1 := model.UniformFlow("f1", 4, 0, 0, 3, 1)
	f2 := model.UniformFlow("f2", 4, 0, 0, 3, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	if _, err := Analyze(fs, Options{}); err == nil {
		t.Error("overload accepted")
	}
}

// TestNonPreemptionAdds: a flow's Blocking shifts its end-to-end bound
// by exactly δi, wherever on the path it is charged.
func TestNonPreemptionAdds(t *testing.T) {
	fs := model.PaperExample()
	base := mustAnalyze(t, fs, Options{})
	delta := []model.Time{3, 1, 4, 1, 5}
	flows := make([]*model.Flow, fs.N())
	for i, f := range fs.Flows {
		flows[i] = f.Clone()
		flows[i].Blocking = make([]model.Time, len(f.Path))
		flows[i].Blocking[i%len(f.Path)] = delta[i]
	}
	shifted := mustAnalyze(t, model.MustNewFlowSet(fs.Net, flows), Options{})
	for i := range fs.Flows {
		if shifted.Bounds[i] != base.Bounds[i]+delta[i] {
			t.Errorf("flow %d: %d + %d ≠ %d", i, base.Bounds[i], delta[i], shifted.Bounds[i])
		}
	}
}

// TestArrivalJitterMonotoneAlongPath: accumulated variability can only
// grow along a path.
func TestArrivalJitterMonotoneAlongPath(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		for k := 1; k < len(res.ArrivalJitter[i]); k++ {
			if res.ArrivalJitter[i][k] < res.ArrivalJitter[i][k-1] {
				t.Errorf("flow %d: jitter shrinks at hop %d: %v", i, k, res.ArrivalJitter[i])
			}
		}
	}
}

// TestNodeResponseAtLeastCost: a node's response includes at least the
// packet's own processing.
func TestNodeResponseAtLeastCost(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i, f := range fs.Flows {
		for k := range f.Path {
			if res.NodeResponse[i][k] < f.Cost[k] {
				t.Errorf("flow %d node %d: response %d < cost %d",
					i, k, res.NodeResponse[i][k], f.Cost[k])
			}
		}
	}
}

// TestBoundsAggregateNodeResponses: the end-to-end bound is exactly
// jitter + Σ node responses + links.
func TestBoundsAggregateNodeResponses(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i, f := range fs.Flows {
		sum := f.Jitter + model.Time(len(f.Path)-1)*fs.Net.Lmax
		for _, r := range res.NodeResponse[i] {
			sum += r
		}
		if res.Bounds[i] != sum {
			t.Errorf("flow %d: bound %d ≠ assembled %d", i, res.Bounds[i], sum)
		}
	}
}

// TestHorizonAborts: a tiny horizon triggers the guard instead of
// looping.
func TestHorizonAborts(t *testing.T) {
	fs := model.PaperExample()
	_, err := Analyze(fs, Options{Horizon: 10})
	if err == nil {
		t.Fatal("tiny horizon accepted")
	}
	if !strings.Contains(err.Error(), "horizon") && !strings.Contains(err.Error(), "diverge") {
		t.Errorf("unexpected error %q", err)
	}
}
