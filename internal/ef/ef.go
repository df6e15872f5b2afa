// Package ef applies the trajectory analysis to the Expedited
// Forwarding class of a DiffServ network (paper Section 6).
//
// In a DiffServ-compliant router the EF class is scheduled at fixed
// top priority above the AF and best-effort classes, and flows within
// the EF class share one FIFO queue. Packet scheduling being
// non-preemptive, an EF packet arriving while a lower-class packet is
// in service must wait for its completion; Lemma 4 bounds the total
// such blocking δi along a flow's path, and Property 3 adds it to the
// FIFO bound of Property 2.
package ef

import (
	"context"
	"fmt"

	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// NonPreemptionPerNode computes Lemma 4's δi for EF flow i of the flow
// set, decomposed per visited node (summing the vector gives δi).
//
// Per visited node, an in-service non-EF packet can block the EF packet
// by at most (its processing time − 1) — it started at the latest one
// tick before the EF arrival — except when the blocking flow travels
// with τi in the same direction: its packet then left the previous node
// before τi's, so the residual blocking shrinks to
// (C^h_j − C^{pre_i(h)}_i + Lmax − Lmin)⁺ by the pipelining argument of
// Lemma 4's proof. Each case's maximum ranges only over non-EF flows
// actually in that case at that node (the paper's 1α guard, applied
// per node).
func NonPreemptionPerNode(fs *model.FlowSet, i int) []model.Time {
	fi := fs.Flows[i]
	out := make([]model.Time, len(fi.Path))
	if fi.Class != model.ClassEF {
		return out
	}
	type rel struct {
		j int
		r model.PathRelation
	}
	var nonEF []rel
	for j, fj := range fs.Flows {
		if j == i || fj.Class == model.ClassEF {
			continue
		}
		if r := model.Relate(fi, fj); r.Intersects {
			nonEF = append(nonEF, rel{j, r})
		}
	}
	if len(nonEF) == 0 {
		return out
	}

	onSharedTail := func(r model.PathRelation, h model.NodeID) bool {
		for _, s := range r.Shared[1:] {
			if s == h {
				return true
			}
		}
		return false
	}

	// Ingress node: blocking by non-EF flows whose crossing of Pi
	// starts there.
	first := fi.Path.First()
	var cFirst model.Time
	for _, e := range nonEF {
		if e.r.FirstJI == first {
			if c := fs.Flows[e.j].CostAt(first); c > cFirst {
				cFirst = c
			}
		}
	}
	if cFirst > 1 {
		out[0] = cFirst - 1
	}

	for k := 1; k < len(fi.Path); k++ {
		h := fi.Path[k]
		var term model.Time
		hasTerm := false
		for _, e := range nonEF {
			fj := fs.Flows[e.j]
			c := fj.CostAt(h)
			if c == 0 {
				continue
			}
			var v model.Time
			switch {
			case e.r.FirstJI == h:
				// The non-EF flow first meets Pi here: fresh blocking.
				v = c - 1
			case onSharedTail(e.r, h) && !e.r.SameDirection:
				// Reverse-direction flow already on the path: its
				// packets arrive independently at every shared node.
				v = c - 1
			case onSharedTail(e.r, h) && e.r.SameDirection:
				// Same-direction flow travelling with τi: residual
				// blocking after pipelining. k ≥ 1, so Cost[k-1] is
				// C^{pre_i(h)}_i.
				v = c - fi.Cost[k-1] + fs.Net.Lmax - fs.Net.Lmin
			default:
				continue
			}
			if !hasTerm || v > term {
				term, hasTerm = v, true
			}
		}
		if hasTerm && term > 0 {
			out[k] = term
		}
	}
	return out
}

// NonPreemptionDelay computes Lemma 4's total δi for EF flow i.
func NonPreemptionDelay(fs *model.FlowSet, i int) model.Time {
	var s model.Time
	for _, v := range NonPreemptionPerNode(fs, i) {
		s += v
	}
	return s
}

// NonPreemptionDelays computes δi for every flow of the set (zero for
// non-EF flows, which are never analysed).
func NonPreemptionDelays(fs *model.FlowSet) []model.Time {
	out := make([]model.Time, fs.N())
	for i := range fs.Flows {
		out[i] = NonPreemptionDelay(fs, i)
	}
	return out
}

// Result is the EF-class analysis outcome.
type Result struct {
	// EFIndex maps positions in the EF-restricted results back to flow
	// indices of the full set.
	EFIndex []int
	// Deltas[k] is δ of flow EFIndex[k] (Lemma 4).
	Deltas []model.Time
	// Trajectory is the Property-3 result over the EF subset.
	Trajectory *trajectory.Result
	// Holistic is the holistic baseline with the same δ, for comparison.
	Holistic *holistic.Result
}

// BoundOf returns the Property-3 bound of the full-set flow index i,
// or false if i is not an EF flow.
func (r *Result) BoundOf(i int) (model.Time, bool) {
	for k, idx := range r.EFIndex {
		if idx == i {
			return r.Trajectory.Bounds[k], true
		}
	}
	return 0, false
}

// Analyze runs Property 3 over the EF flows of a mixed-class flow set:
// FIFO interference is counted among EF flows only (they share the EF
// queue and outrank everything else), while AF/BE flows contribute the
// non-preemption penalty δi, set per node as each EF flow's Blocking in
// the analysed subset (replacing any Blocking the caller gave). The
// holistic baseline reads the same penalty, so the comparison isolates
// the approaches.
func Analyze(fs *model.FlowSet, opt trajectory.Options) (*Result, error) {
	return AnalyzeContext(context.Background(), fs, opt)
}

// AnalyzeContext is Analyze with cancellation: a canceled context aborts
// the trajectory fixed point within one sweep and surfaces as
// model.ErrCanceled.
func AnalyzeContext(ctx context.Context, fs *model.FlowSet, opt trajectory.Options) (*Result, error) {
	var efIdx []int
	var efFlows []*model.Flow
	for i, f := range fs.Flows {
		if f.Class == model.ClassEF {
			efIdx = append(efIdx, i)
			efFlows = append(efFlows, f.Clone())
		}
	}
	if len(efIdx) == 0 {
		return nil, model.Errorf(model.ErrInvalidConfig, "ef: flow set has no EF flows")
	}
	deltas := make([]model.Time, len(efIdx))
	for k, i := range efIdx {
		efFlows[k].Blocking = NonPreemptionPerNode(fs, i)
		for _, v := range efFlows[k].Blocking {
			deltas[k] += v
		}
	}
	sub, err := model.NewFlowSet(fs.Net, efFlows)
	if err != nil {
		return nil, model.Classify(model.ErrInvalidConfig, fmt.Errorf("ef: building EF subset: %w", err))
	}
	traj, err := trajectory.AnalyzeContext(ctx, sub, opt)
	if err != nil {
		return nil, err
	}
	hol, err := holistic.Analyze(sub, holistic.Options{})
	if err != nil {
		return nil, err
	}
	return &Result{EFIndex: efIdx, Deltas: deltas, Trajectory: traj, Holistic: hol}, nil
}
