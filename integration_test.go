// End-to-end integration tests: the complete user workflow — configure
// a network, analyse it every way the library offers, simulate it, and
// cross-check all the numbers against each other. These tests tie the
// packages together the way README's quickstart promises.
package trajan_test

import (
	"strings"
	"testing"

	"trajan/internal/adversary"
	"trajan/internal/ef"
	"trajan/internal/exact"
	"trajan/internal/feasibility"
	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/netcalc"
	"trajan/internal/sim"
	"trajan/internal/trajectory"
)

// TestFullWorkflowOnPaperExample walks the whole pipeline on the
// paper's example and asserts every cross-method relation at once:
//
//	observed ≤ trajectory ≤ holistic,
//	PBOO/per-node netcalc finite, verdicts flip as the paper claims.
func TestFullWorkflowOnPaperExample(t *testing.T) {
	cfg := `{
	  "network": {"lmin": 1, "lmax": 1},
	  "flows": [
	    {"name": "tau1", "period": 36, "deadline": 40, "path": [1,3,4,5], "cost": 4},
	    {"name": "tau2", "period": 36, "deadline": 45, "path": [9,10,7,6], "cost": 4},
	    {"name": "tau3", "period": 36, "deadline": 55, "path": [2,3,4,7,10,11], "cost": 4},
	    {"name": "tau4", "period": 36, "deadline": 55, "path": [2,3,4,7,10,11], "cost": 4},
	    {"name": "tau5", "period": 36, "deadline": 50, "path": [2,3,4,7,8], "cost": 4}
	  ]
	}`
	fs, err := model.ParseFlowSet(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}

	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hol, err := holistic.Analyze(fs, holistic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(fs, netcalc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pboo, err := netcalc.AnalyzePBOO(fs, netcalc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	finds, err := adversary.SearchAnnealed(fs,
		adversary.Options{Seed: 1, Restarts: 8, Packets: 5, ClimbSteps: 24}, 60)
	if err != nil {
		t.Fatal(err)
	}

	for i, f := range fs.Flows {
		obs := finds[i].MaxResponse
		if obs > traj.Bounds[i] {
			t.Errorf("%s: observed %d > trajectory %d", f.Name, obs, traj.Bounds[i])
		}
		if traj.Bounds[i] > hol.Bounds[i] {
			t.Errorf("%s: trajectory %d > holistic %d", f.Name, traj.Bounds[i], hol.Bounds[i])
		}
		if nc.Bounds[i] >= model.TimeInfinity || pboo.Bounds[i] >= model.TimeInfinity {
			t.Errorf("%s: netcalc bounds not finite", f.Name)
		}
	}

	trep, err := feasibility.Check(fs, traj.Bounds, traj.Jitters, "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := feasibility.Check(fs, hol.Bounds, hol.Jitters, "holistic")
	if err != nil {
		t.Fatal(err)
	}
	if !trep.AllFeasible || hrep.AllFeasible {
		t.Error("the paper's feasibility flip did not reproduce")
	}
}

// TestFullWorkflowMixedClasses: DiffServ deployment — EF voice with
// AF/BE background through the Property-3 pipeline, validated by both
// the adversary (FP+WFQ router) and the per-component analyses.
func TestFullWorkflowMixedClasses(t *testing.T) {
	voice1 := model.UniformFlow("v1", 50, 2, 80, 2, 1, 2, 3, 4)
	voice2 := model.UniformFlow("v2", 50, 0, 80, 2, 2, 3, 4, 5)
	af := model.UniformFlow("af", 40, 0, 0, 7, 1, 2, 3, 4, 5)
	af.Class = model.ClassAF
	be := model.UniformFlow("be", 60, 0, 0, 11, 2, 3, 4)
	be.Class = model.ClassBE
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(),
		[]*model.Flow{voice1, voice2, af, be})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ef.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.EFIndex {
		if res.Deltas[k] == 0 {
			t.Errorf("EF flow %d: no non-preemption penalty despite AF/BE background", k)
		}
		if res.Trajectory.Bounds[k] > res.Holistic.Bounds[k] {
			t.Errorf("EF flow %d: trajectory %d > holistic %d",
				k, res.Trajectory.Bounds[k], res.Holistic.Bounds[k])
		}
	}
	// Feasibility against the voice deadlines.
	for k, idx := range res.EFIndex {
		if res.Trajectory.Bounds[k] > fs.Flows[idx].Deadline {
			t.Errorf("%s misses its deadline: %d > %d",
				fs.Flows[idx].Name, res.Trajectory.Bounds[k], fs.Flows[idx].Deadline)
		}
	}
}

// TestFullWorkflowExactMicro: the whole stack agrees on a micro system
// where ground truth is enumerable.
func TestFullWorkflowExactMicro(t *testing.T) {
	f1 := model.UniformFlow("a", 14, 1, 0, 3, 1, 2)
	f2 := model.UniformFlow("b", 14, 0, 0, 2, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})

	ground, err := exact.Verify(fs, exact.Options{Packets: 3, FullJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	finds, err := adversary.Search(fs, adversary.Options{Seed: 2, Restarts: 8, Packets: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs.Flows {
		if ground.Worst[i] > traj.Bounds[i] {
			t.Errorf("flow %d: exact %d > bound %d", i, ground.Worst[i], traj.Bounds[i])
		}
		if finds[i].MaxResponse > ground.Worst[i] {
			t.Errorf("flow %d: adversary %d above exhaustive ground truth %d — impossible",
				i, finds[i].MaxResponse, ground.Worst[i])
		}
	}
	// The steady-state sampler is also below ground truth.
	ds, err := sim.SteadyState(fs, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d.Max > ground.Worst[i] {
			t.Errorf("flow %d: sampled %d above exhaustive ground truth %d",
				i, d.Max, ground.Worst[i])
		}
	}
}
