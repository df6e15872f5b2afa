package trajectory

import (
	"errors"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// This file holds the engine's observability emissions: helpers that
// translate internal state into obs events. Everything here runs ONLY
// behind a non-nil Options.Tracer check at the call site — the nil
// tracer fast path must stay allocation-free and branch-cheap on the
// hot paths (AnalyzeFlow reuse, admission churn), which obs_test.go
// and the root bench_guard_test.go enforce.

// smaxOutcome names a finished Smax fixed-point run for EvSmaxDone.
func smaxOutcome(err error, converged bool) string {
	switch {
	case err == nil && converged:
		return "converged"
	case err == nil:
		return "capped"
	case errors.Is(err, model.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// countDirty counts set flags; a nil slice means "all n dirty".
func countDirty(dirty []bool, n int) int {
	if dirty == nil {
		return n
	}
	c := 0
	for _, d := range dirty {
		if d {
			c++
		}
	}
	return c
}

// emitFlowBound emits flow i's finished bound with its exact
// Lemma-2/Property-3 decomposition. For a finite bound the emitted
// terms satisfy R = Σ work + self + countedTwice + links + δ − t*
// (obs.BoundDecomp.Sum), mirroring the engine's evaluation
//
//	R = W(t*) + C^last − t*
//	W = [maxSum − C^last + (|Pi|−1)·Lmax + δ] + self + Σ work
//
// term by term (the ±C^last cancels). An Unbounded verdict carries no
// breakdown — its A offsets may themselves be saturated — and is
// additionally flagged as a saturation event.
func (a *Analyzer) emitFlowBound(tr obs.Tracer, i int, d *FlowDetail) {
	f := a.fs.Flows[i]
	if model.IsUnbounded(d.Bound) {
		tr.Emit(obs.Event{Type: obs.EvSaturation, Flow: f.Name, Op: "bound"})
		tr.Emit(obs.Event{Type: obs.EvFlowBound, Flow: f.Name, Value: d.Bound,
			Decomp: &obs.BoundDecomp{R: d.Bound, Unbounded: true}})
		return
	}
	dec := &obs.BoundDecomp{
		R:            d.Bound,
		CriticalT:    d.CriticalT,
		Bslow:        d.Bslow,
		SlowNode:     int(d.SlowNode),
		SelfCharge:   f.CostAt(d.SlowNode),
		SelfPackets:  model.OnePlusFloorPos(d.CriticalT+f.Jitter, f.Period),
		CountedTwice: d.MaxSum,
		Links:        model.Time(len(f.Path)-1) * a.fs.Net.Lmax,
		Delta:        d.Delta,
	}
	dec.Self = dec.SelfPackets * dec.SelfCharge
	if len(d.Interference) > 0 {
		dec.Terms = make([]obs.WorkloadTerm, 0, len(d.Interference))
	}
	for _, t := range d.Interference {
		dec.Terms = append(dec.Terms, obs.WorkloadTerm{
			Flow:          a.fs.Flows[t.Flow].Name,
			A:             t.A,
			Packets:       t.Packets,
			Charge:        t.CSlow,
			Work:          t.Packets * t.CSlow,
			SameDirection: t.SameDirection,
		})
	}
	tr.Emit(obs.Event{Type: obs.EvFlowBound, Flow: f.Name, Value: d.Bound, Decomp: dec})
}

// emitDelta emits one committed mutation: which flow changed, whether
// the next fixed point warm-starts, and how many flows' Smax rows
// restart dirty.
func emitDelta(tr obs.Tracer, op, flow string, warm bool, dirty []bool) {
	outcome := "cold"
	nd := 0
	if warm {
		outcome = "warm"
		nd = countDirty(dirty, 0)
	}
	tr.Emit(obs.Event{Type: obs.EvDelta, Op: op, Flow: flow, Outcome: outcome, Dirty: nd})
}
