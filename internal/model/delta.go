package model

// Copy-on-write mutation constructors for FlowSet. Admission control
// re-runs the analysis on a flow set that differs from the previous one
// by a single flow; rebuilding every derived structure from scratch
// (NewFlowSet) costs O(n²) Relate calls plus O(n·|P|) prefix sums. The
// constructors below produce a new, independently usable FlowSet that
// shares the per-flow derived rows of every unchanged flow and defers
// the pairwise relation table to first use (ensureRel).
//
// Validation matches NewFlowSet bit-for-bit: the same checks run in the
// same order and produce the same error strings, restricted to the
// pairs a single-flow change can affect. This is what lets the
// warm-start differential tests compare a mutated set against a cold
// NewFlowSet rebuild including failure cases.

// deltaViolations enumerates the Assumption-1 violations that a change
// to flow `ch` can introduce, in exactly the order CheckAssumption1
// would report them over the full set: ordered pairs (i, j) ascending
// lexicographically, restricted to pairs involving ch. Because the
// pre-mutation set satisfies the assumption, these are the only pairs
// that can violate it, so the count and first element agree with a cold
// check.
func deltaViolations(flows []*Flow, ch int) []Assumption1Violation {
	var out []Assumption1Violation
	check := func(i, j int) {
		if ok, why := crossesContiguously(flows[i].Path, flows[j]); !ok {
			out = append(out, Assumption1Violation{PathFlow: i, CrossFlow: j, Reason: why})
		}
	}
	for i := 0; i < ch; i++ {
		check(i, ch)
	}
	for j := range flows {
		if j != ch {
			check(ch, j)
		}
	}
	for i := ch + 1; i < len(flows); i++ {
		check(i, ch)
	}
	return out
}

// validateDelta runs the NewFlowSet per-flow checks for a changed flow
// at index ch of the candidate slice: flow validity, name uniqueness,
// and the Assumption-1 pairs involving ch.
func validateDelta(flows []*Flow, ch int) error {
	f := flows[ch]
	if err := f.Validate(); err != nil {
		return err
	}
	for j, other := range flows {
		if j != ch && other.Name == f.Name {
			return Errorf(ErrInvalidConfig, "flowset: duplicate flow name %q", f.Name)
		}
	}
	if v := deltaViolations(flows, ch); len(v) > 0 {
		return Errorf(ErrInvalidConfig, "flowset: assumption 1 violated (%d pairs), e.g. %s; apply EnforceAssumption1", len(v), v[0])
	}
	return nil
}

// WithFlowAdded returns a new FlowSet extending fs with a deep copy of
// f at index N(). fs itself is not modified. The new set shares the
// derived rows of the existing flows; only the appended flow's row is
// computed.
func (fs *FlowSet) WithFlowAdded(f *Flow) (*FlowSet, error) {
	nf := f.Clone()
	flows := make([]*Flow, len(fs.Flows)+1)
	copy(flows, fs.Flows)
	flows[len(fs.Flows)] = nf
	if err := validateDelta(flows, len(fs.Flows)); err != nil {
		return nil, err
	}
	out := &FlowSet{Net: fs.Net, Flows: flows}
	out.nodeIdx = make([]map[NodeID]int, len(flows))
	out.sminPre = make([][]Time, len(flows))
	copy(out.nodeIdx, fs.nodeIdx)
	copy(out.sminPre, fs.sminPre)
	out.nodeIdx[len(fs.Flows)], out.sminPre[len(fs.Flows)] = out.derivedRow(nf)
	return out, nil
}

// WithFlowRemoved returns a new FlowSet without the flow at index i.
// Removing a flow only deletes ordered pairs, so a valid set stays
// valid and no re-validation is needed; removing the last flow gives
// the empty set.
func (fs *FlowSet) WithFlowRemoved(i int) (*FlowSet, error) {
	if i < 0 || i >= len(fs.Flows) {
		return nil, Errorf(ErrInvalidConfig, "flowset: flow index %d out of range [0,%d)", i, len(fs.Flows))
	}
	n := len(fs.Flows) - 1
	out := &FlowSet{Net: fs.Net, Flows: make([]*Flow, n)}
	out.nodeIdx = make([]map[NodeID]int, n)
	out.sminPre = make([][]Time, n)
	copy(out.Flows, fs.Flows[:i])
	copy(out.Flows[i:], fs.Flows[i+1:])
	copy(out.nodeIdx, fs.nodeIdx[:i])
	copy(out.nodeIdx[i:], fs.nodeIdx[i+1:])
	copy(out.sminPre, fs.sminPre[:i])
	copy(out.sminPre[i:], fs.sminPre[i+1:])
	return out, nil
}

// Subset returns a new FlowSet of the flows at the strictly ascending
// indices idx, in that order. Like removal, taking a subset only deletes
// ordered pairs, so a valid set stays valid: the derived rows are shared
// and nothing is re-validated. An empty, unordered or out-of-range idx
// is rejected.
func (fs *FlowSet) Subset(idx []int) (*FlowSet, error) {
	if len(idx) == 0 {
		return nil, Errorf(ErrInvalidConfig, "flowset: no flows")
	}
	out := &FlowSet{Net: fs.Net, Flows: make([]*Flow, len(idx))}
	out.nodeIdx = make([]map[NodeID]int, len(idx))
	out.sminPre = make([][]Time, len(idx))
	prev := -1
	for k, i := range idx {
		if i <= prev || i >= len(fs.Flows) {
			return nil, Errorf(ErrInvalidConfig, "flowset: subset index %d out of order or range [0,%d)", i, len(fs.Flows))
		}
		prev = i
		out.Flows[k], out.nodeIdx[k], out.sminPre[k] = fs.Flows[i], fs.nodeIdx[i], fs.sminPre[i]
	}
	return out, nil
}

// WithFlowUpdated returns a new FlowSet with the flow at index i
// replaced by a deep copy of f. Validation covers exactly the pairs the
// replacement can affect.
func (fs *FlowSet) WithFlowUpdated(i int, f *Flow) (*FlowSet, error) {
	if i < 0 || i >= len(fs.Flows) {
		return nil, Errorf(ErrInvalidConfig, "flowset: flow index %d out of range [0,%d)", i, len(fs.Flows))
	}
	nf := f.Clone()
	flows := make([]*Flow, len(fs.Flows))
	copy(flows, fs.Flows)
	flows[i] = nf
	if err := validateDelta(flows, i); err != nil {
		return nil, err
	}
	out := &FlowSet{Net: fs.Net, Flows: flows}
	out.nodeIdx = make([]map[NodeID]int, len(flows))
	out.sminPre = make([][]Time, len(flows))
	copy(out.nodeIdx, fs.nodeIdx)
	copy(out.sminPre, fs.sminPre)
	out.nodeIdx[i], out.sminPre[i] = out.derivedRow(nf)
	return out, nil
}
