package model

import (
	"fmt"
	"slices"
)

// Assumption 1 (paper Section 2.2): for every pair of flows τi, τj whose
// paths intersect, τj must cross Pi in a single contiguous, direction-
// consistent segment — a flow never revisits Pi after having left it.
// The paper's remedy is to "consider a flow crossing path Pi after it
// left Pi as a new flow", iterating until the assumption holds. This
// file implements both the check and the split.

// CheckAssumption1 reports, for each ordered pair of flows, whether τj's
// crossing of Pi satisfies Assumption 1. It returns a nil slice when the
// flow set already satisfies the assumption, otherwise one violation per
// offending ordered pair, in (i, j) order. Only pairs that share a node
// can violate it, so each τi is checked against the flows its nodes
// index (flowsByNode) instead of against all n−1 others.
func CheckAssumption1(flows []*Flow) []Assumption1Violation {
	var out []Assumption1Violation
	byNode := flowsByNode(flows)
	var cand []int
	mark := make([]int, len(flows))
	for i, fi := range flows {
		cand = sharers(byNode, fi.Path, i, mark, cand)
		for _, j := range cand {
			if ok, why := crossesContiguously(fi.Path, flows[j]); !ok {
				out = append(out, Assumption1Violation{
					PathFlow: i, CrossFlow: j, Reason: why,
				})
			}
		}
	}
	return out
}

// flowsByNode maps every node to the indexes of the flows visiting it,
// in ascending order.
func flowsByNode(flows []*Flow) map[NodeID][]int {
	m := make(map[NodeID][]int)
	for j, f := range flows {
		for _, h := range f.Path {
			if l := m[h]; len(l) == 0 || l[len(l)-1] != j {
				m[h] = append(l, j)
			}
		}
	}
	return m
}

// sharers returns, in ascending order and reusing buf, the indexes of
// the flows other than i that visit a node of path. mark is scratch of
// one entry per flow; sharers leaves i+1 in the entries it returns.
func sharers(byNode map[NodeID][]int, path Path, i int, mark, buf []int) []int {
	buf = buf[:0]
	for _, h := range path {
		for _, j := range byNode[h] {
			if j != i && mark[j] != i+1 {
				mark[j] = i + 1
				buf = append(buf, j)
			}
		}
	}
	slices.Sort(buf)
	return buf
}

// Assumption1Violation identifies one ordered pair (path flow τi,
// crossing flow τj) for which Assumption 1 fails.
type Assumption1Violation struct {
	PathFlow  int    // index of τi, whose path is crossed
	CrossFlow int    // index of τj, the offender
	Reason    string // human-readable description
}

func (v Assumption1Violation) String() string {
	return fmt.Sprintf("flow #%d crosses path of flow #%d non-contiguously: %s",
		v.CrossFlow, v.PathFlow, v.Reason)
}

// crossesContiguously verifies both halves of the assumption for flow
// fj against path pi:
//
//  1. along fj's path, the nodes belonging to pi form one contiguous run
//     (fj never leaves pi and comes back), and
//  2. that run maps to consecutive positions of pi, monotonically
//     increasing (same direction) or decreasing (reverse direction), so
//     the two flows traverse the same physical links while together.
func crossesContiguously(pi Path, fj *Flow) (bool, string) {
	first, last := -1, -1
	for k, h := range fj.Path {
		if pi.Contains(h) {
			if first < 0 {
				first = k
			}
			last = k
		}
	}
	if first < 0 {
		return true, "" // no intersection
	}
	// Half 1: no gap inside [first, last] on fj's path.
	for k := first; k <= last; k++ {
		if !pi.Contains(fj.Path[k]) {
			return false, fmt.Sprintf("leaves the path at node %d and returns", fj.Path[k])
		}
	}
	// Half 2: consecutive, monotone positions on pi.
	if last == first {
		return true, ""
	}
	prev := pi.Index(fj.Path[first])
	step := pi.Index(fj.Path[first+1]) - prev
	if step != 1 && step != -1 {
		return false, fmt.Sprintf("shared nodes %d,%d are not adjacent on the path",
			fj.Path[first], fj.Path[first+1])
	}
	for k := first + 1; k <= last; k++ {
		cur := pi.Index(fj.Path[k])
		if cur-prev != step {
			return false, fmt.Sprintf("shared segment changes direction or skips at node %d", fj.Path[k])
		}
		prev = cur
	}
	return true, ""
}

// EnforceAssumption1 returns a flow set satisfying Assumption 1 by
// splitting every offending flow into virtual fragment flows: whenever
// τj leaves some path Pi and later re-enters it, τj is cut at the
// re-entry point, and the analysis treats the fragments as distinct
// flows. Fragments keep the parent's period, jitter, deadline and class,
// and record the parent's index (Flow.Parent).
//
// The split is iterated to a fixed point, since cutting one flow can
// expose a violation against a fragment's own (shorter) path. The
// procedure terminates: every iteration strictly increases the number of
// flows, and a flow of length L can be cut at most L-1 times.
//
// Treating a fragment as a flow released at its first node with the
// parent's jitter is the paper's own (conservative-in-interference)
// device; the fragment's bound is an interference model, not a delivery
// guarantee for the parent flow.
func EnforceAssumption1(flows []*Flow) []*Flow {
	work := make([]*Flow, len(flows))
	for i, f := range flows {
		work[i] = f.Clone()
		if work[i].parent < 0 && !f.IsVirtual() {
			work[i].parent = -1
		}
	}
	// Each round rebuilds the node index and cuts at the first offending
	// (i, j) pair in scan order; pairs sharing no node never offend, so
	// visiting only the indexed sharers finds the same pair as a scan of
	// all pairs.
	for changed := true; changed; {
		changed = false
		byNode := flowsByNode(work)
		mark := make([]int, len(work))
		var cand []int
		for i := 0; i < len(work) && !changed; i++ {
			cand = sharers(byNode, work[i].Path, i, mark, cand)
			for _, j := range cand {
				cut := firstDeparture(work[i].Path, work[j])
				if cut < 0 {
					continue
				}
				head, tail := splitFlowAt(work[j], cut, originalIndex(flows, work[j], j))
				rest := append([]*Flow{}, work[:j]...)
				rest = append(rest, head, tail)
				rest = append(rest, work[j+1:]...)
				work = rest
				changed = true
				break
			}
		}
	}
	return work
}

// originalIndex resolves the parent index to record on fragments: if f
// is already a fragment, keep its parent; otherwise it is the flow at
// position j of the pre-split slice — but j may have shifted, so fall
// back to the flow's own identity.
func originalIndex(orig []*Flow, f *Flow, j int) int {
	if p, ok := f.Parent(); ok {
		return p
	}
	for k, o := range orig {
		if o.Name == f.Name {
			return k
		}
	}
	return j
}

// firstDeparture returns the position on fj's path at which fj re-enters
// pi after having left it (the cut point), or -1 when fj crosses pi in a
// single valid segment. A direction change or link skip inside the
// shared segment is likewise treated as a re-entry at the offending node.
func firstDeparture(pi Path, fj *Flow) int {
	first, last := -1, -1
	for k, h := range fj.Path {
		if pi.Contains(h) {
			if first < 0 {
				first = k
			}
			last = k
		}
	}
	if first < 0 || first == last {
		return -1
	}
	prevIdx := pi.Index(fj.Path[first])
	step := 0
	for k := first + 1; k <= last; k++ {
		h := fj.Path[k]
		if !pi.Contains(h) {
			// fj left pi inside the run: cut at the first node after k
			// where it re-enters.
			for m := k + 1; m <= last; m++ {
				if pi.Contains(fj.Path[m]) {
					return m
				}
			}
			return -1 // unreachable: last is on pi
		}
		cur := pi.Index(h)
		d := cur - prevIdx
		if step == 0 {
			if d != 1 && d != -1 {
				return k // skips across pi: treat as new crossing
			}
			step = d
		} else if d != step {
			return k // changes direction or skips
		}
		prevIdx = cur
	}
	return -1
}

// splitFlowAt cuts flow f before path position k, producing head
// [0,k) and tail [k,end] fragments that record parent as their origin.
func splitFlowAt(f *Flow, k, parent int) (*Flow, *Flow) {
	if k <= 0 || k >= len(f.Path) {
		panic(fmt.Sprintf("model.splitFlowAt: cut %d outside path of length %d", k, len(f.Path)))
	}
	head := f.Clone()
	head.Name = f.Name + "~a"
	head.Path = f.Path[:k].Clone()
	head.Cost = append([]Time(nil), f.Cost[:k]...)
	head.parent = parent
	head.fragStart = f.fragStart
	tail := f.Clone()
	tail.Name = f.Name + "~b"
	tail.Path = f.Path[k:].Clone()
	tail.Cost = append([]Time(nil), f.Cost[k:]...)
	tail.parent = parent
	tail.fragStart = f.fragStart + k
	return head, tail
}
