package feasibility

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// closFixture builds a 2-spine/2-leaf/1-host fabric with a spine-0
// background load: a new host→host flow's direct (shortest) path
// through spine 0 is infeasible under a tight deadline, while the
// spine-1 alternate is feasible — the canonical auto-route scenario.
func closFixture(t *testing.T) (*model.Topology, *model.Flow, *model.Flow) {
	t.Helper()
	topo, err := workload.ClosTopology(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// hog occupies only spine 0, so it constrains exactly the direct
	// path and shares a single contiguous node with every candidate.
	hog := model.UniformFlow("hog", 100, 0, 0, 30, workload.ClosSpine(0))
	direct, err := topo.Route(workload.ClosHost(0, 0), workload.ClosHost(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	f := model.UniformFlow("x", 50, 0, 30, 2, direct...)
	return topo, hog, f
}

func TestRouteCandidatesErrors(t *testing.T) {
	topo, _, f := closFixture(t)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"nil topology", func() error {
			_, err := RouteCandidates(nil, f, 2)
			return err
		}},
		{"non-uniform cost", func() error {
			nf := f.Clone()
			nf.Cost[0]++
			_, err := RouteCandidates(topo, nf, 2)
			return err
		}},
		{"blocking", func() error {
			nf := f.Clone()
			nf.Blocking = make([]model.Time, len(nf.Path))
			_, err := RouteCandidates(topo, nf, 2)
			return err
		}},
		{"unknown endpoint", func() error {
			nf := model.UniformFlow("y", 50, 0, 30, 2, 9999, workload.ClosHost(1, 0))
			_, err := RouteCandidates(topo, nf, 2)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.fn()
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, model.ErrInvalidConfig) {
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestRouteCandidatesOrderAndClass(t *testing.T) {
	topo, _, f := closFixture(t)
	f.Class = model.ClassAF
	cfs, err := RouteCandidates(topo, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) != 2 {
		t.Fatalf("candidates = %d, want 2 (one per spine)", len(cfs))
	}
	for i, cf := range cfs {
		if cf.Name != "x" || cf.Class != model.ClassAF {
			t.Fatalf("candidate %d: name %q class %v, want x/AF", i, cf.Name, cf.Class)
		}
	}
	if model.ComparePaths(cfs[0].Path, cfs[1].Path) >= 0 {
		t.Fatalf("candidates out of order: %v !< %v", cfs[0].Path, cfs[1].Path)
	}
	if cfs[0].Path[2] != workload.ClosSpine(0) || cfs[1].Path[2] != workload.ClosSpine(1) {
		t.Fatalf("want spine-0 then spine-1 transit, got %v / %v", cfs[0].Path, cfs[1].Path)
	}
}

func TestChooseRoute(t *testing.T) {
	cases := []struct {
		name  string
		cands []RouteCandidate
		want  int
	}{
		{"none feasible", []RouteCandidate{{Outcome: "infeasible"}, {Outcome: "invalid"}}, -1},
		{"empty", nil, -1},
		{"widest slack wins", []RouteCandidate{
			{Outcome: "feasible", MinSlack: 3},
			{Outcome: "feasible", MinSlack: 9},
			{Outcome: "feasible", MinSlack: 9},
		}, 1},
		{"ties to earliest", []RouteCandidate{
			{Outcome: "feasible", MinSlack: 5},
			{Outcome: "feasible", MinSlack: 5},
		}, 0},
		{"skips non-feasible", []RouteCandidate{
			{Outcome: "unstable", MinSlack: 100},
			{Outcome: "feasible", MinSlack: 1},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ChooseRoute(tc.cands); got != tc.want {
				t.Fatalf("ChooseRoute = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestClassifyRouteOutcome(t *testing.T) {
	cases := []struct {
		err  error
		ok   bool
		want string
	}{
		{nil, true, "feasible"},
		{nil, false, "infeasible"},
		{model.Errorf(model.ErrUnstable, "diverged"), false, "unstable"},
		{model.Errorf(model.ErrOverflow, "overflow"), false, "unstable"},
		{model.Errorf(model.ErrInvalidConfig, "bad"), false, "invalid"},
		{errors.New("boom"), false, "error"},
	}
	for _, tc := range cases {
		if got := ClassifyRouteOutcome(tc.err, tc.ok); got != tc.want {
			t.Fatalf("ClassifyRouteOutcome(%v, %v) = %q, want %q", tc.err, tc.ok, got, tc.want)
		}
	}
}

// TestTryAdmitRoute drives route=auto admission through the core end
// to end: the direct path is refused under the spine-0 load, the
// alternate admits, and the decision matches the cold oracle.
func TestTryAdmitRoute(t *testing.T) {
	topo, hog, f := closFixture(t)
	c, o := newController(t, model.UnitDelayNetwork(), trajectory.Options{}, "", topo)
	ctx := context.Background()
	if d, err := c.Admit(ctx, hog, false); err != nil || d.Outcome != "admitted" {
		t.Fatalf("hog: %+v, %v", d, err)
	}
	o.flows = []*model.Flow{hog}

	// Manual admission on the direct path is refused outright.
	if d, err := c.Admit(ctx, f.Clone(), false); err != nil {
		t.Fatal(err)
	} else if d.Outcome != "rejected" || d.Reason != "deadline miss" {
		t.Fatalf("direct-path admission: %+v", d)
	}

	want, wantErr := o.route("admit", f)
	d, err := c.Admit(ctx, f, true)
	o.check("route admit", c, d, err, want, wantErr)
	if d.Outcome != "admitted" {
		t.Fatalf("auto-route admission refused; candidates: %+v", d.Cands)
	}
	if len(d.Cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(d.Cands))
	}
	if d.Cands[0].Outcome != "infeasible" {
		t.Fatalf("direct candidate outcome %q, want infeasible", d.Cands[0].Outcome)
	}
	if d.Cands[1].Outcome != "feasible" {
		t.Fatalf("alternate candidate outcome %q, want feasible", d.Cands[1].Outcome)
	}
	if d.Path[2] != workload.ClosSpine(1) {
		t.Fatalf("chosen path %v does not transit spine 1", d.Path)
	}
	if got := c.FlowSet().N(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
}

// TestRouteParallelScoringParity pins the tentpole determinism claim:
// scoring all candidates as one parallel WhatIf batch of copy-on-write
// forks produces an outcome vector bit-identical to the sequential
// cold oracle, whatever the parallelism. Run under -race in CI.
func TestRouteParallelScoringParity(t *testing.T) {
	topo, err := workload.ClosTopology(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := model.UnitDelayNetwork()
	// A warm base set on distinct leaf pairs (Assumption 1 holds), with
	// enough spine-0 load that candidates split between verdicts.
	mk := func(name string, sl, dl int, period, deadline, cost model.Time) *model.Flow {
		p, err := topo.Route(workload.ClosHost(sl, 0), workload.ClosHost(dl, 0))
		if err != nil {
			t.Fatal(err)
		}
		return model.UniformFlow(name, period, 0, deadline, cost, p...)
	}
	admitted := []*model.Flow{
		mk("a", 0, 1, 60, 0, 9),
		mk("b", 1, 2, 70, 0, 11),
		mk("c", 2, 3, 80, 0, 7),
	}
	fs, err := model.NewFlowSet(net, admitted)
	if err != nil {
		t.Fatal(err)
	}
	for par := 1; par <= 8; par *= 2 {
		opt := trajectory.Options{Parallelism: par}
		a, err := trajectory.NewAnalyzer(fs, opt)
		if err != nil {
			t.Fatal(err)
		}
		cand := mk("x", 3, 0, 50, 45, 2)
		cfs, err := RouteCandidates(topo, cand, 4)
		if err != nil {
			t.Fatal(err)
		}
		warm := ScoreRoutesWhatIf(context.Background(), a, cfs, -1)
		cold := ScoreRoutesCold(context.Background(), net, opt, admitted, cfs)
		if len(warm) != len(cold) {
			t.Fatalf("par=%d: %d warm vs %d cold candidates", par, len(warm), len(cold))
		}
		for i := range warm {
			if warm[i].Outcome != cold[i].Outcome || warm[i].MinSlack != cold[i].MinSlack {
				t.Fatalf("par=%d candidate %d: warm %s/%d vs cold %s/%d (path %v)",
					par, i, warm[i].Outcome, warm[i].MinSlack, cold[i].Outcome, cold[i].MinSlack, warm[i].Path)
			}
			if !reflect.DeepEqual(warm[i].Path, cold[i].Path) {
				t.Fatalf("par=%d candidate %d: path %v vs %v", par, i, warm[i].Path, cold[i].Path)
			}
		}
		if ChooseRoute(warm) != ChooseRoute(cold) {
			t.Fatalf("par=%d: warm decision %d != cold decision %d", par, ChooseRoute(warm), ChooseRoute(cold))
		}
	}
}
