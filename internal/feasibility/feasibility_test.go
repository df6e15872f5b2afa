package feasibility

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// TestCheckPaperExample reproduces the paper's Section-5 verdicts: all
// flows feasible under the trajectory bounds, none under the holistic
// ones.
func TestCheckPaperExample(t *testing.T) {
	fs := model.PaperExample()
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs, traj.Bounds, traj.Jitters, "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllFeasible {
		t.Error("trajectory verdicts must all be feasible")
	}
	for _, v := range rep.Verdicts {
		if !v.Feasible || v.Slack != v.Deadline-v.Bound || v.Slack < 0 {
			t.Errorf("verdict %+v", v)
		}
	}
	hol, err := holistic.Analyze(fs, holistic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := Check(fs, hol.Bounds, hol.Jitters, "holistic")
	if err != nil {
		t.Fatal(err)
	}
	if hrep.AllFeasible {
		t.Error("holistic verdicts must not all be feasible")
	}
	for _, v := range hrep.Verdicts {
		if v.Feasible {
			t.Errorf("%s: holistic bound %d within deadline %d", v.Name, v.Bound, v.Deadline)
		}
	}
}

// TestCheckNoDeadlineVacuouslyFeasible: Deadline 0 means "unbounded".
func TestCheckNoDeadline(t *testing.T) {
	f := model.UniformFlow("f", 10, 0, 0, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	rep, err := Check(fs, []model.Time{999}, nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllFeasible || !rep.Verdicts[0].Feasible {
		t.Error("deadline-free flow must be vacuously feasible")
	}
}

func TestCheckArity(t *testing.T) {
	fs := model.PaperExample()
	if _, err := Check(fs, []model.Time{1}, nil, "x"); err == nil {
		t.Error("wrong-length bounds accepted")
	}
}

// TestControllerAdmitsUntilSaturation: identical EF flows over one
// tandem are admitted while deadlines hold, then refused; the state
// must not change on refusal.
func TestControllerAdmitsUntilSaturation(t *testing.T) {
	c, _ := newController(t, model.UnitDelayNetwork(), trajectory.Options{}, "", nil)
	ctx := context.Background()
	mk := func(k int) *model.Flow {
		return model.UniformFlow(
			// The n-th identical flow's bound is 2n+6, so deadline 20
			// admits exactly 7 flows.
			"call"+string(rune('a'+k)), 50, 0, 20, 2, 1, 2, 3)
	}
	admittedCount := 0
	for k := 0; k < 12; k++ {
		d, err := c.Admit(ctx, mk(k), false)
		if err != nil {
			t.Fatal(err)
		}
		if d.Outcome == "admitted" {
			admittedCount++
			if !d.AllFeasible {
				t.Fatal("admission with infeasible verdict")
			}
		} else {
			if d.AllFeasible || d.Reason != "deadline miss" {
				t.Fatalf("refusal %+v", d)
			}
			break
		}
	}
	if admittedCount != 7 {
		t.Fatalf("admitted %d flows; want 7", admittedCount)
	}
	if c.FlowSet().N() != admittedCount {
		t.Errorf("state has %d flows after %d admissions", c.FlowSet().N(), admittedCount)
	}
	// A later, laxer flow can still be admitted: refusal is per
	// candidate, not terminal. (Deadline-free candidate never misses.)
	lax := model.UniformFlow("lax", 50, 0, 0, 2, 7, 8)
	if d, err := c.Admit(ctx, lax, false); err != nil || d.Outcome != "admitted" {
		t.Errorf("off-path deadline-free flow: %+v, %v", d, err)
	}
}

// TestControllerPreloadBackground: background BE flows are not
// deadline-checked but inflate the EF bound through δ.
func TestControllerPreloadBackground(t *testing.T) {
	bulk := model.UniformFlow("bulk", 100, 0, 1, 9, 1, 2) // absurd deadline, non-EF
	bulk.Class = model.ClassBE
	net := model.UnitDelayNetwork()

	voice := model.UniformFlow("v", 50, 0, 20, 2, 1, 2)
	ok, rep, err := AdmitEF(net, trajectory.Options{}, []*model.Flow{bulk}, voice)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("voice refused: %+v", rep)
	}
	var boundWithBG model.Time
	for _, v := range rep.Verdicts {
		if v.Name == "v" {
			boundWithBG = v.Bound
		}
	}
	ok2, rep2, err := AdmitEF(net, trajectory.Options{}, nil, voice)
	if err != nil || !ok2 {
		t.Fatal(err)
	}
	if rep2.Verdicts[0].Bound >= boundWithBG {
		t.Errorf("background blocking did not inflate the bound: %d vs %d",
			boundWithBG, rep2.Verdicts[0].Bound)
	}
}

// TestControllerRefusesOverload: a candidate that saturates a node is
// refused via the divergence path rather than erroring out, and the
// refusal leaves the committed set unchanged.
func TestControllerRefusesOverload(t *testing.T) {
	c, _ := newController(t, model.UnitDelayNetwork(), trajectory.Options{}, "", nil)
	ctx := context.Background()
	if d, err := c.Admit(ctx, model.UniformFlow("base", 4, 0, 0, 3, 1), false); err != nil || d.Outcome != "admitted" {
		t.Fatalf("base: %+v, %v", d, err)
	}
	d, err := c.Admit(ctx, model.UniformFlow("cand", 4, 0, 100, 3, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != "rejected" || d.Reason != "unstable" {
		t.Errorf("overloading candidate: %+v", d)
	}
	if c.FlowSet().N() != 1 {
		t.Error("refusal mutated state")
	}
	// The cold Property-3 test refuses it the same way.
	ok, rep, err := AdmitEF(model.UnitDelayNetwork(), trajectory.Options{}, c.FlowSet().Flows,
		model.UniformFlow("cand", 4, 0, 100, 3, 1))
	if err != nil || ok || rep.AllFeasible {
		t.Errorf("AdmitEF overload: ok=%v rep=%+v err=%v", ok, rep, err)
	}
}

// TestControllerSplitsForAssumption1: a candidate weaving across an
// admitted path is split by the cold Property-3 test, not rejected.
func TestControllerSplitsForAssumption1(t *testing.T) {
	base := model.UniformFlow("base", 50, 0, 0, 2, 1, 2, 3, 4, 5)
	weave := model.UniformFlow("weave", 50, 0, 0, 2, 2, 3, 9, 4, 5)
	ok, _, err := AdmitEF(model.UnitDelayNetwork(), trajectory.Options{}, []*model.Flow{base}, weave)
	if err != nil {
		t.Fatalf("assumption-1 candidate errored: %v", err)
	}
	if !ok {
		t.Error("weaving deadline-free candidate refused")
	}
}

// TestControllerWarmMatchesColdOracle: a long all-EF admission sequence
// through the warm core produces, decision by decision, the verdicts
// and bounds of a cold analysis of the resulting set.
func TestControllerWarmMatchesColdOracle(t *testing.T) {
	c, o := newController(t, model.UnitDelayNetwork(), trajectory.Options{}, "", nil)
	mk := func(k int, dl model.Time, path ...model.NodeID) *model.Flow {
		return model.UniformFlow("f"+string(rune('a'+k)), 40+model.Time(k%3)*10, model.Time(k%2), dl, 2, path...)
	}
	cands := []*model.Flow{
		mk(0, 25, 1, 2, 3),
		mk(1, 25, 2, 3, 4),
		mk(2, 25, 3, 2, 1), // reverse direction
		mk(3, 18, 1, 2, 3, 4),
		mk(4, 14, 4, 3, 2),
		mk(5, 12, 2, 3),
		mk(6, 12, 1, 2, 3),
		mk(7, 10, 3, 4),
		mk(8, 60, 1, 2, 3, 4),
	}
	for k, f := range cands {
		want, wantErr := o.admit(f)
		got, err := c.Admit(context.Background(), f, false)
		o.check(fmt.Sprintf("cand %d", k), c, got, err, want, wantErr)
	}
	if n := c.FlowSet().N(); n == 0 || n == len(cands) {
		t.Fatalf("admitted %d of %d: want a mix of accepts and refusals", n, len(cands))
	}
	// Duplicate-name candidate: a typed validation error, state intact.
	dup := c.FlowSet().Flows[0].Clone()
	if _, err := c.Admit(context.Background(), dup, false); err == nil ||
		!strings.Contains(err.Error(), "duplicate flow name") ||
		!errors.Is(err, model.ErrInvalidConfig) {
		t.Fatalf("duplicate candidate: %v", err)
	}
	o.check("after duplicate", c, Decision{}, errors.New("skip"), Decision{}, errors.New("skip"))
}
