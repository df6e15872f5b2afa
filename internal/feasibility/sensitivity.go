package feasibility

import (
	"fmt"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// Sensitivity quantifies how far a feasible flow set is from the
// schedulability cliff — the questions a network operator asks before
// signing an SLA: how much faster may a flow send, how much larger may
// its packets grow, before some deadline breaks.
type Sensitivity struct {
	// Flow is the probed flow's index.
	Flow int
	// MinPeriod is the smallest period Ti (≥ 1) for which the whole set
	// stays feasible, all else fixed.
	MinPeriod model.Time
	// MaxCostScalePercent is the largest uniform scaling of the flow's
	// per-node costs, in percent (≥ 100 means "no headroom at all" only
	// when it equals 100), keeping the set feasible.
	MaxCostScalePercent int
}

// AnalyzeSensitivity probes each flow in turn via binary search over
// its period and cost scale, re-running the trajectory analysis at each
// candidate. The input set must be feasible to begin with. The search
// treats analysis divergence (overload) as infeasible.
func AnalyzeSensitivity(fs *model.FlowSet, opt trajectory.Options) ([]Sensitivity, error) {
	if ok, err := feasible(fs, opt); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("feasibility: sensitivity analysis needs a feasible starting set")
	}
	// One warm analyzer serves every probe: each candidate is an
	// UpdateFlow against the previous converged state (a delta
	// re-analysis touching only the probed flow's interference
	// closure), reverted before the next probe.
	probe, _ := trajectory.NewAnalyzer(fs, opt)
	out := make([]Sensitivity, fs.N())
	for i := range fs.Flows {
		s := Sensitivity{Flow: i}
		var err error
		s.MinPeriod, err = minPeriod(fs, opt, probe, i)
		if err != nil {
			return nil, err
		}
		s.MaxCostScalePercent, err = maxCostScale(fs, opt, probe, i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// feasible re-analyses a candidate set; divergence counts as false.
// The per-flow query through a shared Analyzer pays the Smax fixed
// point once and stops at the first deadline violation instead of
// bounding the remaining flows.
func feasible(fs *model.FlowSet, opt trajectory.Options) (bool, error) {
	a, err := trajectory.NewAnalyzer(fs, opt)
	if err != nil {
		return false, nil // malformed options: treat as infeasible, as before
	}
	for i, f := range fs.Flows {
		r, err := a.AnalyzeFlow(i)
		if err != nil {
			return false, nil // overload: infeasible, not a caller error
		}
		if f.Deadline > 0 && r > f.Deadline {
			return false, nil
		}
	}
	return true, nil
}

// probeFeasible answers "is the set with flow i replaced by f still
// feasible?". With a warm analyzer it applies the replacement via
// UpdateFlow, queries bounds flow by flow, and reverts to the original
// flow; without one it falls back to a cold rebuild. The probed flows
// only vary Period and Cost, so the mutation cannot be rejected for
// structural reasons; if it is anyway, the cold path decides.
func probeFeasible(fs *model.FlowSet, opt trajectory.Options, probe *trajectory.Analyzer, i int, f *model.Flow) (bool, error) {
	if probe != nil {
		if err := probe.UpdateFlow(i, f); err == nil {
			ok := true
			for j, g := range probe.FlowSet().Flows {
				r, err := probe.AnalyzeFlow(j)
				if err != nil {
					ok = false // overload: infeasible, not a caller error
					break
				}
				if g.Deadline > 0 && r > g.Deadline {
					ok = false
					break
				}
			}
			if err := probe.UpdateFlow(i, fs.Flows[i].Clone()); err == nil {
				return ok, nil
			}
			// Revert failed (cannot happen for the probes we build):
			// the warm state is unusable, answer cold.
		}
	}
	cand, err := withFlow(fs, i, f)
	if err != nil {
		return false, err
	}
	return feasible(cand, opt)
}

// withFlow rebuilds the flow set with flow i replaced.
func withFlow(fs *model.FlowSet, i int, f *model.Flow) (*model.FlowSet, error) {
	flows := make([]*model.Flow, fs.N())
	for k, g := range fs.Flows {
		if k == i {
			flows[k] = f
		} else {
			flows[k] = g.Clone()
		}
	}
	return model.NewFlowSet(fs.Net, flows)
}

// minPeriod binary-searches the smallest feasible Ti.
func minPeriod(fs *model.FlowSet, opt trajectory.Options, probe *trajectory.Analyzer, i int) (model.Time, error) {
	lo, hi := model.Time(1), fs.Flows[i].Period
	check := func(t model.Time) (bool, error) {
		f := fs.Flows[i].Clone()
		f.Period = t
		return probeFeasible(fs, opt, probe, i, f)
	}
	// The starting period is feasible; shrink from there. Feasibility
	// is monotone in Ti for all implemented analyses (interference
	// counts are non-increasing in periods), so binary search applies.
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := check(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// maxCostScale binary-searches the largest feasible uniform cost
// scaling, in percent of the current costs.
func maxCostScale(fs *model.FlowSet, opt trajectory.Options, probe *trajectory.Analyzer, i int) (int, error) {
	check := func(percent int) (bool, error) {
		f := fs.Flows[i].Clone()
		for k := range f.Cost {
			f.Cost[k] = f.Cost[k] * model.Time(percent) / 100
			if f.Cost[k] < 1 {
				f.Cost[k] = 1
			}
		}
		return probeFeasible(fs, opt, probe, i, f)
	}
	lo, hi := 100, 100
	// Exponential probe upward, then binary search.
	for hi < 100_000 {
		ok, err := check(hi * 2)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		hi *= 2
	}
	hi *= 2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := check(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}
