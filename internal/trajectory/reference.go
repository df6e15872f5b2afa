package trajectory

import (
	"trajan/internal/model"
)

// This file keeps the original straight-line implementation of the
// analysis as an executable specification. referenceAnalyze rebuilds
// every per-view context (path relations, M terms, Bslow, slow-node
// choice) from scratch on every evaluation, exactly as the code read
// before the incremental Analyzer engine existed. The engine is
// required to return bit-identical Results at every Options setting;
// the differential tests in engine_test.go enforce that over fuzzed
// flow sets. Keep the two in lockstep: a change to the analysis
// semantics must land in both paths, or the differential test fails.

// referenceAnalyze computes Property-2/3 bounds the pre-engine way:
// computeSmax re-runs boundForView for every (flow, prefix) slot on
// every sweep, and every boundForView call pays the full newBoundCtx
// topology cost.
func referenceAnalyze(fs *model.FlowSet, opt Options) (*Result, error) {
	smax, sweeps, converged, err := computeSmax(fs, opt)
	if err != nil {
		return nil, err
	}
	arrival := make([][]model.Time, fs.N())
	for i := range smax {
		arrival[i] = append([]model.Time(nil), smax[i]...)
	}
	res := &Result{
		Bounds:        make([]model.Time, fs.N()),
		Jitters:       make([]model.Time, fs.N()),
		Details:       make([]FlowDetail, fs.N()),
		ArrivalBounds: arrival,
		SmaxSweeps:    sweeps,
		SmaxConverged: converged,
	}
	for i := range fs.Flows {
		c, err := newBoundCtx(fs, opt, fullView(fs, i), smax)
		if err != nil {
			return nil, err
		}
		r, tStar := c.bound()
		res.Bounds[i] = r
		var jsat bool
		res.Jitters[i] = model.SubSat(r, fs.Flows[i].MinTraversal(fs.Net.Lmin), &jsat)
		d := FlowDetail{
			Flow:      i,
			Bound:     r,
			Bslow:     c.bslow,
			CriticalT: tStar,
			SlowNode:  c.slow,
			MaxSum:    c.maxSum,
			Delta:     c.delta,
		}
		// Unbounded verdicts carry no per-interferer breakdown (the A
		// offsets may be saturated) — mirrored by the engine.
		if r < model.TimeInfinity {
			for _, in := range c.inter {
				d.Interference = append(d.Interference, InterferenceTerm{
					Flow:          in.j,
					A:             in.a,
					Packets:       model.OnePlusFloorPos(tStar+in.a, fs.Flows[in.j].Period),
					CSlow:         in.rel.CSlowJI,
					SameDirection: in.rel.SameDirection,
				})
			}
		}
		res.Details[i] = d
	}
	return res, nil
}

// referenceAnalyzeFlow is the pre-engine single-flow entry point: it
// rebuilds the global Smax table on every call.
func referenceAnalyzeFlow(fs *model.FlowSet, opt Options, i int) (model.Time, error) {
	if i < 0 || i >= fs.N() {
		return 0, model.Errorf(model.ErrInvalidConfig, "trajectory: flow index %d out of range [0,%d)", i, fs.N())
	}
	smax, _, _, err := computeSmax(fs, opt)
	if err != nil {
		return 0, err
	}
	return boundForView(fs, opt, fullView(fs, i), smax)
}
