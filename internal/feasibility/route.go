// Routing-aware admission: instead of judging the one path the caller
// picked (the paper's footnote-1 source-routing stance), enumerate k
// candidate paths between the flow's endpoints, score every candidate's
// post-admission state, and admit on the best feasible path. The
// scoring is deliberately cheap and embarrassingly parallel — one
// analysis per candidate — so the Controller runs it as a single
// Analyzer.WhatIf batch of copy-on-write forks; this file provides the
// candidate construction, the deterministic selection rule, and the
// sequential cold oracle those parallel decisions must match
// bit-for-bit.
package feasibility

import (
	"context"
	"errors"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// DefaultRouteK is the candidate-path fan-out when the caller does not
// choose one: enough to dodge a congested spine in the Clos fixtures
// without making every admission k cold analyses wide.
const DefaultRouteK = 4

// RouteCandidate is one scored candidate path.
type RouteCandidate struct {
	// Path is the candidate route (k-shortest order).
	Path model.Path
	// Flow is the submitted contract re-routed onto Path.
	Flow *model.Flow
	// Outcome classifies the post-admission analysis: "feasible",
	// "infeasible" (a deadline would be missed), "unstable" (the
	// analysis diverges or overflows), "invalid" (the candidate cannot
	// join the admitted set, e.g. an Assumption-1 violation), or
	// "error" (any other failure, carried in Err).
	Outcome string
	// MinSlack is the post-admission tightest deadline slack of the
	// whole set; meaningful only when Outcome is "feasible" or
	// "infeasible" (TimeInfinity when no flow has a deadline).
	MinSlack model.Time
	// Err holds the analysis error behind "unstable", "invalid" and
	// "error" outcomes.
	Err error
}

// RouteCandidates re-routes flow f onto up to k shortest paths between
// its endpoints (f.Path.First() → f.Path.Last()). The submitted path's
// interior is ignored — only the endpoints and the contract matter —
// and because candidate paths have unknown length, the flow must carry
// a uniform per-node cost and no Blocking (which is tied to its path).
func RouteCandidates(topo *model.Topology, f *model.Flow, k int) ([]*model.Flow, error) {
	if topo == nil {
		return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: auto-route needs a topology")
	}
	if len(f.Cost) == 0 {
		return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: flow %q has no cost", f.Name)
	}
	if f.Blocking != nil {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"feasibility: auto-route cannot re-route flow %q, its Blocking is tied to the submitted path", f.Name)
	}
	cost := f.Cost[0]
	for _, c := range f.Cost {
		if c != cost {
			return nil, model.Errorf(model.ErrInvalidConfig,
				"feasibility: auto-route needs a uniform per-node cost, flow %q has %v", f.Name, f.Cost)
		}
	}
	if k <= 0 {
		k = DefaultRouteK
	}
	paths, err := topo.KShortestPaths(f.Path.First(), f.Path.Last(), k)
	if err != nil {
		return nil, err
	}
	out := make([]*model.Flow, len(paths))
	for i, p := range paths {
		cf := model.UniformFlow(f.Name, f.Period, f.Jitter, f.Deadline, cost, p...)
		cf.Class = f.Class
		out[i] = cf
	}
	return out, nil
}

// ClassifyRouteOutcome converts one candidate's analysis error (nil on
// success) and post-admission verdict into the RouteCandidate outcome
// taxonomy. It is shared by the parallel (warm) and sequential (cold
// oracle) scorers, so both classify identically.
func ClassifyRouteOutcome(err error, allFeasible bool) string {
	switch {
	case err == nil && allFeasible:
		return "feasible"
	case err == nil:
		return "infeasible"
	case errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow):
		return "unstable"
	case errors.Is(err, model.ErrInvalidConfig):
		return "invalid"
	default:
		return "error"
	}
}

// ChooseRoute picks the winning candidate: among the "feasible"
// candidates, the one whose post-admission MinSlack is largest — the
// route that leaves the whole set the widest surviving margin — with
// ties resolved to the earliest candidate, i.e. the shortest (then
// lexicographically first) path. It returns -1 when no candidate is
// feasible. The rule is a pure function of the outcome vector, so any
// two scorers that produce identical outcomes decide identically.
func ChooseRoute(cands []RouteCandidate) int {
	win := -1
	for i := range cands {
		if cands[i].Outcome != "feasible" {
			continue
		}
		if win < 0 || cands[i].MinSlack > cands[win].MinSlack {
			win = i
		}
	}
	return win
}

// SetVerdict summarizes one hypothetical set's bounds the way the
// admission layers do: feasibility of every deadline and the tightest
// slack (TimeInfinity when no flow has a deadline).
func SetVerdict(flows []*model.Flow, bounds []model.Time) (allFeasible bool, minSlack model.Time) {
	allFeasible, minSlack = true, model.TimeInfinity
	for i, f := range flows {
		if f.Deadline <= 0 {
			continue
		}
		var sat bool
		if s := model.SubSat(f.Deadline, bounds[i], &sat); s < minSlack {
			minSlack = s
		}
		if bounds[i] > f.Deadline {
			allFeasible = false
		}
	}
	return allFeasible, minSlack
}

// ScoreRoutesCold scores candidate flows against the admitted set
// sequentially, each with a cold trajectory analysis of admitted+cand —
// the reference oracle. The trajectory engine's warm-path determinism
// guarantees a converged Analyzer's WhatIf fork produces bit-identical
// bounds for the same hypothetical set, so a parallel scorer built on
// WhatIf must reproduce these outcomes (and hence, via ChooseRoute,
// this oracle's decision) exactly; the parity tests enforce that.
func ScoreRoutesCold(ctx context.Context, net model.Network, opt trajectory.Options, admitted []*model.Flow, cands []*model.Flow) []RouteCandidate {
	out := make([]RouteCandidate, len(cands))
	for i, cf := range cands {
		out[i] = RouteCandidate{Path: cf.Path, Flow: cf}
		trial := make([]*model.Flow, 0, len(admitted)+1)
		trial = append(trial, admitted...)
		trial = append(trial, cf)
		fs, err := model.NewFlowSet(net, trial)
		if err != nil {
			out[i].Err = model.Classify(model.ErrInvalidConfig, err)
			out[i].Outcome = ClassifyRouteOutcome(out[i].Err, false)
			continue
		}
		res, err := trajectory.AnalyzeContext(ctx, fs, opt)
		if err != nil {
			out[i].Err = err
			out[i].Outcome = ClassifyRouteOutcome(err, false)
			continue
		}
		ok, minSlack := SetVerdict(fs.Flows, res.Bounds)
		out[i].MinSlack = minSlack
		out[i].Outcome = ClassifyRouteOutcome(nil, ok)
	}
	return out
}

// ScoreRoutesWhatIf scores candidate flows as one parallel WhatIf
// batch of copy-on-write forks on a warm analyzer: updateIdx >= 0
// scores each candidate as an Update of that admitted flow (path
// renegotiation), -1 as an Add. The WhatIf contract makes every fork's
// bounds bit-identical to a cold analysis of the same hypothetical
// set, so the outcome vector — and hence the ChooseRoute decision —
// matches ScoreRoutesCold over the analyzer's admitted set exactly;
// the parity tests enforce it.
func ScoreRoutesWhatIf(ctx context.Context, a *trajectory.Analyzer, cands []*model.Flow, updateIdx int) []RouteCandidate {
	base := a.FlowSet().Flows
	tcands := make([]trajectory.Candidate, len(cands))
	for i, cf := range cands {
		if updateIdx >= 0 {
			tcands[i] = trajectory.Candidate{Update: cf, Index: updateIdx}
		} else {
			tcands[i] = trajectory.Candidate{Add: cf}
		}
	}
	outcomes := a.WhatIfContext(ctx, tcands)
	out := make([]RouteCandidate, len(cands))
	for i, cf := range cands {
		out[i] = RouteCandidate{Path: cf.Path, Flow: cf}
		if err := outcomes[i].Err; err != nil {
			// Unclassified fork errors are set-construction failures — the
			// same class ScoreRoutesCold wraps as ErrInvalidConfig.
			out[i].Err = model.Classify(model.ErrInvalidConfig, err)
			out[i].Outcome = ClassifyRouteOutcome(out[i].Err, false)
			continue
		}
		flows := make([]*model.Flow, 0, len(base)+1)
		flows = append(flows, base...)
		if updateIdx >= 0 {
			flows[updateIdx] = cf
		} else {
			flows = append(flows, cf)
		}
		ok, minSlack := SetVerdict(flows, outcomes[i].Result.Bounds)
		out[i].MinSlack = minSlack
		out[i].Outcome = ClassifyRouteOutcome(nil, ok)
	}
	return out
}
