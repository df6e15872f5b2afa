package trajectory

import (
	"errors"
	"fmt"
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

// TestGoldenPaperExample locks this implementation's bounds on the
// paper's Section-5 example. The published Table 2 row is
// (31, 43, 53, 53, 44); our prefix-fixpoint analysis is tighter at
// (31, 37, 47, 47, 40) — the adversarial simulation in package
// adversary observes responses up to (23, 25, 45, 45, 38), confirming
// both soundness and near-tightness. EXPERIMENTS.md proves the
// published row cannot be produced by Property 2 as printed.
func TestGoldenPaperExample(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	want := []model.Time{31, 37, 47, 47, 40}
	for i, w := range want {
		if res.Bounds[i] != w {
			t.Errorf("R(%s) = %d, want %d", fs.Flows[i].Name, res.Bounds[i], w)
		}
	}
	if !res.SmaxConverged {
		t.Error("Smax fixpoint did not converge")
	}
	// The paper's headline claims must hold against the published
	// deadlines: every flow feasible under the trajectory approach.
	for i, f := range fs.Flows {
		if res.Bounds[i] > f.Deadline {
			t.Errorf("%s: bound %d misses deadline %d", f.Name, res.Bounds[i], f.Deadline)
		}
	}
}

// TestSingleFlowExact: a flow alone in the network is delayed only by
// its own processing, the links, and its release jitter.
func TestSingleFlowExact(t *testing.T) {
	cases := []struct {
		name string
		flow *model.Flow
		net  model.Network
		want model.Time
	}{
		{
			name: "one node",
			flow: model.UniformFlow("f", 100, 0, 0, 4, 1),
			net:  model.UnitDelayNetwork(),
			want: 4,
		},
		{
			name: "three nodes",
			flow: model.UniformFlow("f", 100, 0, 0, 4, 1, 2, 3),
			net:  model.Network{Lmin: 2, Lmax: 5},
			want: 3*4 + 2*5,
		},
		{
			name: "with jitter",
			flow: model.UniformFlow("f", 100, 7, 0, 4, 1, 2),
			net:  model.UnitDelayNetwork(),
			want: 2*4 + 1 + 7,
		},
		{
			name: "jitter beyond period backlogs own packets",
			// J=15 > T=10: a packet released late can find earlier
			// packets of its own flow still queued.
			flow: model.UniformFlow("f", 10, 15, 0, 4, 1),
			net:  model.UnitDelayNetwork(),
			want: 19, // C + J: the t=-J release absorbs the full jitter
		},
	}
	for _, c := range cases {
		fs := model.MustNewFlowSet(c.net, []*model.Flow{c.flow})
		res := mustAnalyze(t, fs, Options{})
		if res.Bounds[0] != c.want {
			t.Errorf("%s: bound %d, want %d", c.name, res.Bounds[0], c.want)
		}
	}
}

// TestTwoFlowsOneNodeExact: two flows meeting at a single node, long
// periods — the bound is both packets back to back, and it is exact.
func TestTwoFlowsOneNodeExact(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		if res.Bounds[i] != 6 {
			t.Errorf("flow %d: bound %d, want 6", i, res.Bounds[i])
		}
	}
}

// TestTandemSameDirectionExact: two flows sharing a two-node path in
// the same direction. Hand schedule: the analysed packet loses the
// ingress tie, waits 3, and the interferer stays ahead of it on node 2
// without further delay (pipelining) — response exactly 10.
func TestTandemSameDirectionExact(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		if res.Bounds[i] != 10 {
			t.Errorf("flow %d: bound %d, want 10", i, res.Bounds[i])
		}
	}
}

// TestHeadOnReverseExact: two flows traversing the same two nodes in
// opposite directions. Worst hand schedule: the interferer's packet
// finishes its first node early enough to tie with the analysed packet
// at the analysed flow's ingress and win — response exactly 10.
func TestHeadOnReverseExact(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		if res.Bounds[i] != 10 {
			t.Errorf("flow %d: bound %d, want 10", i, res.Bounds[i])
		}
	}
}

// TestJitterDefinition2: the reported end-to-end jitter is exactly
// Ri − (ΣC + (|Pi|−1)·Lmin).
func TestJitterDefinition2(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i, f := range fs.Flows {
		want := res.Bounds[i] - f.MinTraversal(fs.Net.Lmin)
		if res.Jitters[i] != want {
			t.Errorf("%s: jitter %d, want %d", f.Name, res.Jitters[i], want)
		}
		if res.Jitters[i] < 0 {
			t.Errorf("%s: negative jitter %d", f.Name, res.Jitters[i])
		}
	}
}

// TestOverloadedNodeErrors: utilization > 1 must be detected, not spun
// on.
func TestOverloadedNodeErrors(t *testing.T) {
	f1 := model.UniformFlow("f1", 5, 0, 0, 3, 1)
	f2 := model.UniformFlow("f2", 5, 0, 0, 3, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	_, err := Analyze(fs, Options{})
	if err == nil {
		t.Fatal("overload accepted")
	}
	if !strings.Contains(err.Error(), "diverge") {
		t.Errorf("error %q does not mention divergence", err)
	}
}

// TestAnalyzeFlowMatchesAnalyze: the single-flow entry point agrees
// with the batch analysis.
func TestAnalyzeFlowMatchesAnalyze(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i := range fs.Flows {
		r, err := AnalyzeFlow(fs, Options{}, i)
		if err != nil {
			t.Fatal(err)
		}
		if r != res.Bounds[i] {
			t.Errorf("AnalyzeFlow(%d) = %d, batch %d", i, r, res.Bounds[i])
		}
	}
	if _, err := AnalyzeFlow(fs, Options{}, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestNonPreemptionShiftsBound: with a fixed Smax table (no-queue
// mode), Property 3 adds exactly δi = Σ per-node blocking to each
// bound; under the prefix estimator the shift is at least δi (upstream
// blocking also widens the A windows).
func TestNonPreemptionShiftsBound(t *testing.T) {
	fs := model.PaperExample()
	delta := cyclicBlocking(fs)
	total := make([]model.Time, fs.N())
	for i := range delta {
		for _, d := range delta[i] {
			total[i] += d
		}
	}
	blocked := withBlocking(t, fs, delta)
	baseNQ := mustAnalyze(t, fs, Options{Smax: SmaxNoQueue})
	shiftNQ := mustAnalyze(t, blocked, Options{Smax: SmaxNoQueue})
	for i := range fs.Flows {
		if shiftNQ.Bounds[i] != baseNQ.Bounds[i]+total[i] {
			t.Errorf("no-queue flow %d: %d + δ%d ≠ %d",
				i, baseNQ.Bounds[i], total[i], shiftNQ.Bounds[i])
		}
	}
	base := mustAnalyze(t, fs, Options{})
	shifted := mustAnalyze(t, blocked, Options{})
	for i := range fs.Flows {
		if shifted.Bounds[i] < base.Bounds[i]+total[i] {
			t.Errorf("prefix flow %d: shifted %d < base %d + δ%d",
				i, shifted.Bounds[i], base.Bounds[i], total[i])
		}
	}
}

// TestScanDominatesNoScan: the full critical-instant scan can only
// raise the bound over the t=-Ji evaluation.
func TestScanDominatesNoScan(t *testing.T) {
	fs := model.PaperExample()
	full := mustAnalyze(t, fs, Options{})
	noScan := mustAnalyze(t, fs, Options{DisableTScan: true})
	for i := range fs.Flows {
		if full.Bounds[i] < noScan.Bounds[i] {
			t.Errorf("flow %d: scan %d < no-scan %d", i, full.Bounds[i], noScan.Bounds[i])
		}
	}
}

// TestStrictWindowTightens: half-open windows never count more packets.
func TestStrictWindowTightens(t *testing.T) {
	fs := model.PaperExample()
	closed := mustAnalyze(t, fs, Options{})
	strict := mustAnalyze(t, fs, Options{StrictWindow: true})
	for i := range fs.Flows {
		if strict.Bounds[i] > closed.Bounds[i] {
			t.Errorf("flow %d: strict %d > closed %d", i, strict.Bounds[i], closed.Bounds[i])
		}
	}
}

// TestScaleInvariance: multiplying every temporal parameter by k scales
// every bound by exactly k (the analysis is purely arithmetic in time).
func TestScaleInvariance(t *testing.T) {
	const k = 7
	base := model.PaperExample()
	scaled := make([]*model.Flow, base.N())
	for i, f := range base.Flows {
		g := f.Clone()
		g.Period *= k
		g.Jitter *= k
		g.Deadline *= k
		for m := range g.Cost {
			g.Cost[m] *= k
		}
		scaled[i] = g
	}
	sfs := model.MustNewFlowSet(model.Network{Lmin: base.Net.Lmin * k, Lmax: base.Net.Lmax * k}, scaled)
	r1 := mustAnalyze(t, base, Options{})
	r2 := mustAnalyze(t, sfs, Options{})
	for i := range base.Flows {
		if r2.Bounds[i] != k*r1.Bounds[i] {
			t.Errorf("flow %d: scaled bound %d ≠ %d·%d", i, r2.Bounds[i], k, r1.Bounds[i])
		}
	}
}

// TestAddingInterfererMonotone: installing a new flow never decreases
// the existing flows' bounds.
func TestAddingInterfererMonotone(t *testing.T) {
	f1 := model.UniformFlow("f1", 50, 0, 0, 4, 1, 2, 3)
	f2 := model.UniformFlow("f2", 60, 0, 0, 3, 2, 3, 4)
	fs2 := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1.Clone(), f2.Clone()})
	r2 := mustAnalyze(t, fs2, Options{})
	f3 := model.UniformFlow("f3", 70, 0, 0, 5, 3, 4, 5)
	fs3 := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1.Clone(), f2.Clone(), f3})
	r3 := mustAnalyze(t, fs3, Options{})
	for i := 0; i < 2; i++ {
		if r3.Bounds[i] < r2.Bounds[i] {
			t.Errorf("flow %d: bound dropped from %d to %d after adding a flow",
				i, r2.Bounds[i], r3.Bounds[i])
		}
	}
}

// TestBoundAtLeastMinTraversal: no bound can undercut the unloaded
// traversal time.
func TestBoundAtLeastMinTraversal(t *testing.T) {
	fs := model.PaperExample()
	for _, opt := range []Options{{}, {Smax: SmaxNoQueue}} {
		res := mustAnalyze(t, fs, opt)
		for i, f := range fs.Flows {
			if res.Bounds[i] < f.MinTraversal(fs.Net.Lmin) {
				t.Errorf("mode %v flow %d: bound %d below floor %d",
					opt.Smax, i, res.Bounds[i], f.MinTraversal(fs.Net.Lmin))
			}
		}
	}
}

// TestDetails: the per-flow breakdown is internally consistent.
func TestDetails(t *testing.T) {
	fs := model.PaperExample()
	res := mustAnalyze(t, fs, Options{})
	for i, d := range res.Details {
		if d.Flow != i || d.Bound != res.Bounds[i] {
			t.Errorf("detail %d: flow=%d bound=%d", i, d.Flow, d.Bound)
		}
		if d.Bslow <= 0 {
			t.Errorf("detail %d: Bslow=%d", i, d.Bslow)
		}
		if d.CriticalT < -fs.Flows[i].Jitter || d.CriticalT >= -fs.Flows[i].Jitter+d.Bslow {
			t.Errorf("detail %d: critical t=%d outside window [%d,%d)",
				i, d.CriticalT, -fs.Flows[i].Jitter, -fs.Flows[i].Jitter+d.Bslow)
		}
		if !fs.Flows[i].Path.Contains(d.SlowNode) {
			t.Errorf("detail %d: slow node %d off path", i, d.SlowNode)
		}
		if len(d.Interference) != len(fs.Interferers(i)) {
			t.Errorf("detail %d: %d interference terms for %d interferers",
				i, len(d.Interference), len(fs.Interferers(i)))
		}
		for _, term := range d.Interference {
			if term.Packets < 0 || term.CSlow <= 0 {
				t.Errorf("detail %d: bad term %+v", i, term)
			}
		}
	}
}

// TestBslowUnstableNamesLoad: on a fan-in set whose nodes all stay at
// utilisation 0.4, the busy-period equation of the flow every
// interferer meets has load 1/10 + 4·3/10 = 1.3 and diverges. The
// error, from the engine's grouped fold and the reference's
// per-interferer fold alike, reports that load and the highest node
// utilisation on the flow's path, 0.4, and claims no node utilisation
// of 1.
func TestBslowUnstableNamesLoad(t *testing.T) {
	flows := []*model.Flow{model.UniformFlow("victim", 10, 0, 0, 1, 0, 1, 2, 3)}
	for k := 0; k < 4; k++ {
		flows = append(flows, model.UniformFlow(fmt.Sprintf("in%d", k), 10, 0, 0, 3, model.NodeID(10+k), model.NodeID(k)))
	}
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), flows)
	for _, h := range fs.Nodes() {
		if u := fs.TotalUtilizationAt(h); u >= 1 {
			t.Fatalf("node %d utilisation %.3f, want every node below 1", h, u)
		}
	}
	_, gotErr := Analyze(fs, Options{})
	_, wantErr := referenceAnalyze(fs, Options{})
	for _, err := range []error{gotErr, wantErr} {
		if !errors.Is(err, model.ErrUnstable) {
			t.Fatalf("err %v, want ErrUnstable", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, `flow "victim"`) || !strings.Contains(msg, "Bslow load") ||
			!strings.Contains(msg, "= 1.300") || strings.Contains(msg, "utilization ≥ 1") ||
			!strings.Contains(msg, "highest node utilisation on its path 0.400") {
			t.Errorf("message %q: want the victim's Bslow load 1.300, its path's highest node utilisation 0.400 and no claim of a node at 1", msg)
		}
	}
	if gotErr.Error() != wantErr.Error() {
		t.Errorf("engine err %q, reference err %q", gotErr, wantErr)
	}
}

// TestUnknownSmaxMode: a bogus mode is an error, not a silent default.
func TestUnknownSmaxMode(t *testing.T) {
	fs := model.PaperExample()
	if _, err := Analyze(fs, Options{Smax: SmaxMode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if SmaxMode(99).String() != "unknown" {
		t.Error("unknown mode name")
	}
	if SmaxPrefixFixpoint.String() != "prefix-fixpoint" ||
		SmaxNoQueue.String() != "no-queue" {
		t.Error("mode names broken")
	}
}
