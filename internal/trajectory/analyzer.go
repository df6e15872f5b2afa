package trajectory

import (
	"context"

	"trajan/internal/model"
)

// Result is the outcome of a trajectory analysis of a whole flow set.
type Result struct {
	// Bounds[i] is the worst-case end-to-end response-time bound Ri of
	// flow i (Property 2, or Property 3 when the flow carries
	// Blocking).
	Bounds []model.Time
	// Jitters[i] is flow i's end-to-end jitter per Definition 2:
	// Ri - (Σ_h C^h_i + (|Pi|-1)·Lmin).
	Jitters []model.Time
	// Details holds the per-flow computation breakdown.
	Details []FlowDetail
	// ArrivalBounds[i][k] is the converged Smax^h_i estimate: an upper
	// bound on the time from a packet's generation to its arrival at
	// the k-th node of flow i's path (ArrivalBounds[i][0] = Ji). Useful
	// for per-hop budget allocation and buffer dimensioning.
	ArrivalBounds [][]model.Time
	// SmaxSweeps is the number of fixed-point sweeps the Smax estimator
	// used; SmaxConverged is false when it hit the iteration cap (the
	// bounds are then reported but flagged).
	SmaxSweeps    int
	SmaxConverged bool
}

// Unbounded reports whether flow i's bound saturated the time domain:
// the analysis could not certify any finite response-time bound (it
// reports model.TimeInfinity, never a clamped finite number). Such a
// flow has no meaningful Details breakdown and is infeasible under any
// finite deadline.
func (r *Result) Unbounded(i int) bool {
	return model.IsUnbounded(r.Bounds[i])
}

// FlowDetail explains one flow's bound.
type FlowDetail struct {
	// Flow is the flow's index in the flow set.
	Flow int
	// Bound repeats Result.Bounds[Flow].
	Bound model.Time
	// Bslow is the busy-period window length of Lemma 3; the critical
	// release times scanned lie in [-Ji, -Ji+Bslow).
	Bslow model.Time
	// CriticalT is the release time attaining the maximum.
	CriticalT model.Time
	// SlowNode is the chosen slow_i.
	SlowNode model.NodeID
	// MaxSum is Σ_{h≠slow_i} max_{j same-dir} C^h_j.
	MaxSum model.Time
	// Delta is the non-preemption penalty δi applied (0 for pure FIFO).
	Delta model.Time
	// Interference lists the per-interferer contribution at CriticalT.
	Interference []InterferenceTerm
}

// InterferenceTerm is one interfering flow's contribution to the bound.
type InterferenceTerm struct {
	// Flow is the interferer's index.
	Flow int
	// A is the window offset A_{i,j} of Lemma 2.
	A model.Time
	// Packets is the packet count (1+⌊(t*+A)/Tj⌋)⁺ at the critical t*.
	Packets model.Time
	// CSlow is C^{slow_{j,i}}_j, the per-packet charge.
	CSlow model.Time
	// SameDirection mirrors the path relation.
	SameDirection bool
}

// Analyze computes Property-2 (or Property-3) bounds for every flow of
// the set under the given options. The flow set must already satisfy
// Assumption 1 (model.NewFlowSet enforces it). One-shot cold analysis:
// a set whose flows fall into several interference components (flows
// of different components share no node) is analysed one component at
// a time, with a Result bit-identical to a whole-set Analyzer's (see
// components.go). Callers that re-query the same flow set (admission
// control, sensitivity sweeps) should hold a NewAnalyzer instead.
func Analyze(fs *model.FlowSet, opt Options) (*Result, error) {
	return AnalyzeContext(context.Background(), fs, opt)
}

// AnalyzeContext is Analyze with cancellation: a canceled context (or
// deadline) aborts the analysis within one fixed-point sweep and
// surfaces as model.ErrCanceled.
func AnalyzeContext(ctx context.Context, fs *model.FlowSet, opt Options) (*Result, error) {
	if comp, nc := fs.Components(); nc > 1 {
		return analyzeComponents(ctx, fs, opt, comp, nc)
	}
	a := newAnalyzer(fs, opt)
	giveBack := a.borrowBuilder()
	defer giveBack()
	return a.AnalyzeContext(ctx)
}

// AnalyzeFlow computes the bound of a single flow (index i) without
// materializing the full result. The Smax table is still global, since
// every flow's Smax feeds every other flow's A terms; use a shared
// Analyzer to amortize it across calls.
func AnalyzeFlow(fs *model.FlowSet, opt Options, i int) (model.Time, error) {
	if i < 0 || i >= fs.N() {
		return 0, model.Errorf(model.ErrInvalidConfig, "trajectory: flow index %d out of range [0,%d)", i, fs.N())
	}
	a, err := NewAnalyzer(fs, opt)
	if err != nil {
		return 0, err
	}
	return a.AnalyzeFlow(i)
}
