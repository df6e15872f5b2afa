package exact

import (
	"testing"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// TestExactTandem: ground truth on the hand-analysed two-flow tandem —
// the exact worst case is 10 and the trajectory bound touches it.
func TestExactTandem(t *testing.T) {
	f1 := model.UniformFlow("f1", 12, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 12, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res, err := Verify(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.Worst {
		if w != 10 {
			t.Errorf("flow %d: exact worst %d, want 10", i, w)
		}
	}
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs.Flows {
		if traj.Bounds[i] != res.Worst[i] {
			t.Errorf("flow %d: bound %d vs exact %d — expected exact tightness here",
				i, traj.Bounds[i], res.Worst[i])
		}
	}
}

// TestExactHeadOn: ground truth on the reverse-direction pair.
func TestExactHeadOn(t *testing.T) {
	f1 := model.UniformFlow("f1", 14, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 14, 0, 0, 3, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res, err := Verify(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs.Flows {
		if res.Worst[i] > traj.Bounds[i] {
			t.Errorf("flow %d: exact %d exceeds bound %d", i, res.Worst[i], traj.Bounds[i])
		}
		if res.Worst[i] != 10 {
			t.Errorf("flow %d: exact worst %d, want 10", i, res.Worst[i])
		}
	}
}

// TestExactFamilySoundness: exhaustive enumeration over a family of
// micro systems — costs, topology shapes, jitters, link jitter — the
// trajectory bound must dominate ground truth in every single one.
// This is the strongest correctness statement in the repository: not
// "no counterexample found", but "no counterexample exists" within the
// enumerated scenario spaces.
func TestExactFamilySoundness(t *testing.T) {
	type system struct {
		name  string
		net   model.Network
		flows []*model.Flow
	}
	var systems []system

	// Two-flow shapes at various costs.
	for _, c := range []model.Time{1, 2, 3} {
		systems = append(systems,
			system{
				name: "tandem",
				net:  model.UnitDelayNetwork(),
				flows: []*model.Flow{
					model.UniformFlow("a", 10+2*c, 0, 0, c, 1, 2),
					model.UniformFlow("b", 10+2*c, 0, 0, c, 1, 2),
				},
			},
			system{
				name: "headon",
				net:  model.UnitDelayNetwork(),
				flows: []*model.Flow{
					model.UniformFlow("a", 10+2*c, 0, 0, c, 1, 2),
					model.UniformFlow("b", 10+2*c, 0, 0, c, 2, 1),
				},
			},
			system{
				name: "cross",
				net:  model.UnitDelayNetwork(),
				flows: []*model.Flow{
					model.UniformFlow("a", 10+2*c, 0, 0, c, 1, 2, 3),
					model.UniformFlow("b", 10+2*c, 0, 0, c, 4, 2, 5),
				},
			},
		)
	}
	// Jittered variants (the class that caught the Smax bug).
	systems = append(systems,
		system{
			name: "jittered-share",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				model.UniformFlow("a", 9, 2, 0, 2, 1, 2),
				model.UniformFlow("b", 11, 1, 0, 3, 1, 2),
			},
		},
		system{
			name: "jittered-join",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				model.UniformFlow("a", 10, 2, 0, 2, 1, 2, 3),
				model.UniformFlow("b", 9, 1, 0, 2, 4, 2, 3),
			},
		},
		// Link-delay jitter (Lmin < Lmax) with a reverse flow.
		system{
			name: "linkjitter-reverse",
			net:  model.Network{Lmin: 1, Lmax: 3},
			flows: []*model.Flow{
				model.UniformFlow("a", 12, 0, 0, 2, 1, 2),
				model.UniformFlow("b", 12, 0, 0, 2, 2, 1),
			},
		},
		// Three flows funnelling into one node.
		system{
			name: "funnel",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				model.UniformFlow("a", 12, 0, 0, 2, 1, 4),
				model.UniformFlow("b", 12, 0, 0, 2, 2, 4),
				model.UniformFlow("c", 12, 1, 0, 2, 3, 4),
			},
		},
		// Heterogeneous costs on a shared tandem.
		system{
			name: "hetero",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				{Name: "a", Period: 16, Path: model.Path{1, 2}, Cost: []model.Time{1, 4}},
				{Name: "b", Period: 14, Path: model.Path{1, 2}, Cost: []model.Time{3, 2}},
			},
		},
	)

	for _, sys := range systems {
		fs, err := model.NewFlowSet(sys.net, sys.flows)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		exact, err := Verify(fs, Options{Packets: 3, FullJitter: true})
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		for i := range fs.Flows {
			if exact.Worst[i] > traj.Bounds[i] {
				t.Errorf("%s flow %s: EXACT worst %d exceeds bound %d (witness %+v)",
					sys.name, fs.Flows[i].Name, exact.Worst[i], traj.Bounds[i],
					exact.Witness[i])
			}
		}
		t.Logf("%s: exact=%v scenarios=%d", sys.name, exact.Worst, exact.Scenarios)
	}
}

// TestExactBudget: oversized enumerations are refused, not attempted.
func TestExactBudget(t *testing.T) {
	f1 := model.UniformFlow("a", 1000, 50, 0, 2, 1, 2)
	f2 := model.UniformFlow("b", 1000, 50, 0, 2, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	if _, err := Verify(fs, Options{FullJitter: true, MaxScenarios: 1000}); err == nil {
		t.Error("budget overrun accepted")
	}
}

// TestExactWitnessReplays: each worst case's witness scenario is valid
// and reproduces the reported response.
func TestExactWitnessReplays(t *testing.T) {
	f1 := model.UniformFlow("f1", 12, 1, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 12, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res, err := Verify(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.Witness {
		if err := w.Validate(fs); err != nil {
			t.Fatalf("flow %d witness invalid: %v", i, err)
		}
	}
}

// TestExactStride: coarser offset strides trade coverage for speed and
// can only lower the reported worst case.
func TestExactStride(t *testing.T) {
	f1 := model.UniformFlow("f1", 12, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 12, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	fine, err := Verify(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Verify(fs, Options{OffsetStride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Scenarios >= fine.Scenarios {
		t.Error("stride did not reduce the enumeration")
	}
	for i := range fs.Flows {
		if coarse.Worst[i] > fine.Worst[i] {
			t.Errorf("flow %d: coarse %d > fine %d", i, coarse.Worst[i], fine.Worst[i])
		}
	}
}

// TestExactThreeFlowMixes widens the family: three flows with mixed
// directions, jitters and heterogeneous costs.
func TestExactThreeFlowMixes(t *testing.T) {
	type system struct {
		name  string
		net   model.Network
		flows []*model.Flow
	}
	systems := []system{
		{
			name: "two-on-one-reverse",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				model.UniformFlow("a", 12, 0, 0, 2, 1, 2, 3),
				model.UniformFlow("b", 12, 0, 0, 2, 3, 2, 1),
				model.UniformFlow("c", 12, 1, 0, 2, 4, 2, 5),
			},
		},
		{
			name: "hetero-trio",
			net:  model.UnitDelayNetwork(),
			flows: []*model.Flow{
				{Name: "a", Period: 15, Path: model.Path{1, 2}, Cost: []model.Time{1, 4}},
				{Name: "b", Period: 15, Path: model.Path{1, 2}, Cost: []model.Time{3, 1}},
				{Name: "c", Period: 15, Jitter: 1, Path: model.Path{2, 3}, Cost: []model.Time{2, 2}},
			},
		},
		{
			name: "linkjitter-trio",
			net:  model.Network{Lmin: 0, Lmax: 2},
			flows: []*model.Flow{
				model.UniformFlow("a", 13, 0, 0, 2, 1, 2),
				model.UniformFlow("b", 13, 0, 0, 2, 2, 1),
				model.UniformFlow("c", 13, 0, 0, 2, 3, 2),
			},
		},
	}
	for _, sys := range systems {
		fs, err := model.NewFlowSet(sys.net, sys.flows)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		exact, err := Verify(fs, Options{Packets: 3, FullJitter: true})
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		res, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		for i := range fs.Flows {
			if exact.Worst[i] > res.Bounds[i] {
				t.Errorf("%s flow %s: EXACT %d exceeds bound %d",
					sys.name, fs.Flows[i].Name, exact.Worst[i], res.Bounds[i])
			}
		}
		t.Logf("%s: exact=%v scenarios=%d", sys.name, exact.Worst, exact.Scenarios)
	}
}
