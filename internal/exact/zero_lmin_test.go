package exact

import (
	"testing"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// TestExactZeroLmin: instantaneous links (Lmin = 0) create same-tick
// arrival chains across nodes — an engine and analysis edge case. The
// exhaustive verifier covers it against both Smax modes.
func TestExactZeroLmin(t *testing.T) {
	net := model.Network{Lmin: 0, Lmax: 2}
	systems := [][]*model.Flow{
		{
			model.UniformFlow("a", 12, 0, 0, 2, 1, 2, 3),
			model.UniformFlow("b", 12, 0, 0, 2, 1, 2, 3),
		},
		{
			model.UniformFlow("a", 12, 1, 0, 2, 1, 2),
			model.UniformFlow("b", 12, 0, 0, 3, 2, 1),
		},
		{
			model.UniformFlow("a", 14, 0, 0, 2, 1, 2, 3),
			model.UniformFlow("b", 14, 0, 0, 2, 4, 2, 5),
		},
	}
	for si, flows := range systems {
		fs, err := model.NewFlowSet(net, flows)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Verify(fs, Options{Packets: 3, FullJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			t.Fatalf("system %d: %v", si, err)
		}
		for i := range flows {
			if exact.Worst[i] > res.Bounds[i] {
				t.Errorf("system %d flow %d: EXACT %d exceeds bound %d",
					si, i, exact.Worst[i], res.Bounds[i])
			}
		}
		t.Logf("zero-lmin system %d: exact=%v over %d scenarios", si, exact.Worst, exact.Scenarios)
	}
}

// TestExactLargeLinkJitter: Lmax ≫ Lmin exercises the reverse-direction
// A terms, which depend on the link spread.
func TestExactLargeLinkJitter(t *testing.T) {
	net := model.Network{Lmin: 1, Lmax: 6}
	flows := []*model.Flow{
		model.UniformFlow("a", 20, 0, 0, 2, 1, 2, 3),
		model.UniformFlow("b", 20, 0, 0, 2, 3, 2, 1),
	}
	fs, err := model.NewFlowSet(net, flows)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Verify(fs, Options{Packets: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if exact.Worst[i] > res.Bounds[i] {
			t.Errorf("flow %d: EXACT %d exceeds bound %d", i, exact.Worst[i], res.Bounds[i])
		}
	}
}
