// Package feasibility turns response-time bounds into schedulability
// verdicts and implements the deterministic admission control the paper
// motivates for the EF class (Section 6): a new flow is admitted only
// if, with it included, every EF flow still meets its end-to-end
// deadline under the trajectory bounds.
package feasibility

import (
	"fmt"

	"trajan/internal/ef"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// Verdict is one flow's schedulability decision.
type Verdict struct {
	// Flow is the flow's index in the flow set.
	Flow int
	// Name is the flow's name.
	Name string
	// Bound is the analysed worst-case end-to-end response time.
	Bound model.Time
	// Deadline is the flow's end-to-end deadline Di.
	Deadline model.Time
	// Slack is Deadline - Bound (negative when infeasible).
	Slack model.Time
	// Jitter is the end-to-end jitter bound (Definition 2).
	Jitter model.Time
	// Feasible reports Bound ≤ Deadline. Flows with no deadline
	// (Deadline == 0) are vacuously feasible.
	Feasible bool
}

// Report is the verdict set of a whole analysis.
type Report struct {
	Method      string
	Verdicts    []Verdict
	AllFeasible bool
}

// Check evaluates bounds against the flow set's deadlines. Jitters may
// be nil.
func Check(fs *model.FlowSet, bounds, jitters []model.Time, method string) (*Report, error) {
	if len(bounds) != fs.N() {
		return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: %d bounds for %d flows", len(bounds), fs.N())
	}
	rep := &Report{Method: method}
	for i, f := range fs.Flows {
		var jitter model.Time
		if jitters != nil {
			jitter = jitters[i]
		}
		rep.Verdicts = append(rep.Verdicts, verdictOf(i, f, bounds[i], jitter))
	}
	rep.AllFeasible, _ = SetVerdict(fs.Flows, bounds)
	return rep, nil
}

// verdictOf judges one flow's bound against its deadline.
func verdictOf(i int, f *model.Flow, bound, jitter model.Time) Verdict {
	v := Verdict{Flow: i, Name: f.Name, Bound: bound, Deadline: f.Deadline, Jitter: jitter, Feasible: true}
	if f.Deadline > 0 {
		// An Unbounded verdict (TimeInfinity) always misses any finite
		// deadline; SubSat keeps the slack a well-defined saturated
		// negative instead of a wrapped number.
		var sat bool
		v.Slack = model.SubSat(f.Deadline, bound, &sat)
		v.Feasible = bound <= f.Deadline
	}
	return v
}

// AdmitEF is the cold Property-3 admission test: it judges cand
// against admitted — EF flows plus any lower-class background, charged
// to EF flows as non-preemption blocking — splitting flows where
// Assumption 1 requires, with the full EF analysis (ef.Analyze). It
// reports whether every EF flow of the hypothetical set meets its
// deadline, and that set's per-EF-flow verdicts. Divergence or
// overflow is a refusal (an empty, infeasible report); any other
// failure is an error. The warm Controller cannot run this pipeline:
// background flows and Assumption-1 splits reshape the analysed set
// behind its engine.
func AdmitEF(net model.Network, opt trajectory.Options, admitted []*model.Flow, cand *model.Flow) (bool, *Report, error) {
	trial := make([]*model.Flow, 0, len(admitted)+1)
	for _, g := range admitted {
		trial = append(trial, g.Clone())
	}
	trial = append(trial, cand.Clone())
	fs, err := model.NewFlowSet(net, model.EnforceAssumption1(trial))
	if err != nil {
		return false, nil, model.Classify(model.ErrInvalidConfig, fmt.Errorf("feasibility: candidate %q: %w", cand.Name, err))
	}
	res, err := ef.Analyze(fs, opt)
	if err != nil {
		if isRefusal(err) {
			return false, &Report{Method: "trajectory-ef"}, nil
		}
		return false, nil, err
	}
	rep := &Report{Method: "trajectory-ef"}
	efFlows := make([]*model.Flow, len(res.EFIndex))
	for k, idx := range res.EFIndex {
		efFlows[k] = fs.Flows[idx]
		rep.Verdicts = append(rep.Verdicts, verdictOf(idx, fs.Flows[idx], res.Trajectory.Bounds[k], res.Trajectory.Jitters[k]))
	}
	rep.AllFeasible, _ = SetVerdict(efFlows, res.Trajectory.Bounds)
	return rep.AllFeasible, rep, nil
}
