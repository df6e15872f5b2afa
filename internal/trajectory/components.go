package trajectory

import (
	"context"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// Cold analysis one interference component at a time. Two flows
// interact only through the nodes they share, so the classes of the
// transitive "shares a node" relation are independent sub-problems:
// every Smax entry, busy period and bound of a component is a function
// of that component's flows alone, and every fixed point of the whole
// set restricted to a component runs exactly the sweeps of the
// component run alone. A cold analysis of a set made of disjoint parts
// (pods, tenants) therefore runs one Analyzer per component, in turn,
// and drops each before the next: the view slabs and the dense topology
// mirror are sized by one component instead of the whole set, which
// keeps both the work and the live heap linear in the component count.

// analyzeComponents is the cold AnalyzeContext of a set with nc ≥ 2
// components (comp as labelled by model.FlowSet.Components). Each
// component runs as its own flow set with its slice of the per-flow
// options, and its result is scattered back under global flow
// indices. The sweep count
// is the maximum over components and the convergence flag their
// conjunction — what the whole-set fixed point reports. The first
// component error fails the analysis.
//
// Traced, the run emits one EvAnalysisStart for the whole set, then
// each component's Smax run (seed, sweeps, done) and flow bounds in
// turn.
func analyzeComponents(ctx context.Context, fs *model.FlowSet, opt Options, comp []int32, nc int) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, model.Errorf(model.ErrInternal, "trajectory: internal panic in Analyze: %v", p)
		}
	}()
	if tr := opt.Tracer; tr != nil {
		tr.Emit(obs.Event{Type: obs.EvAnalysisStart, Flows: fs.N(), Mode: opt.Smax.String()})
	}
	members := make([][]int, nc)
	for i, c := range comp {
		members[c] = append(members[c], i)
	}
	n := fs.N()
	res = &Result{
		Bounds:        make([]model.Time, n),
		Jitters:       make([]model.Time, n),
		Details:       make([]FlowDetail, n),
		ArrivalBounds: make([][]model.Time, n),
		SmaxConverged: true,
	}
	for _, idx := range members {
		sub, err := fs.Subset(idx)
		if err != nil {
			return nil, err
		}
		cr, err := newAnalyzer(sub, opt).analyze(ctx)
		if err != nil {
			return nil, err
		}
		for l, g := range idx {
			res.Bounds[g] = cr.Bounds[l]
			res.Jitters[g] = cr.Jitters[l]
			res.ArrivalBounds[g] = cr.ArrivalBounds[l]
			d := cr.Details[l]
			d.Flow = g
			for x := range d.Interference {
				d.Interference[x].Flow = idx[d.Interference[x].Flow]
			}
			res.Details[g] = d
		}
		res.SmaxSweeps = max(res.SmaxSweeps, cr.SmaxSweeps)
		res.SmaxConverged = res.SmaxConverged && cr.SmaxConverged
	}
	return res, nil
}
