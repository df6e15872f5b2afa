package trajectory

import "trajan/internal/model"

// smaxTable holds Smax^h_i estimates: smax[i][k] bounds the time from
// the GENERATION of a packet of flow i to its arrival at the k-th node
// of the flow's path. Generation-based accounting is essential for
// soundness: the analysed packet m generated at t reaches node h no
// later than t + Smax^h_i, and at m's own source that latest arrival is
// t + Ji (its release jitter), not t — a same-source interferer
// generated after t can still be released before m and win the FIFO
// tie. (The A term's separate +Jj covers the *interferer's* jitter on
// the other side of the window; using generation-based values for the
// interferer too is mildly pessimistic but sound, since release ≥
// generation.) The adversarial simulation suite caught exactly the
// off-by-Ji underestimate a release-based table produces.
type smaxTable [][]model.Time

func newSmaxTable(fs *model.FlowSet) smaxTable {
	t := make(smaxTable, fs.N())
	for i, f := range fs.Flows {
		t[i] = make([]model.Time, len(f.Path))
	}
	return t
}

// at returns Smax^h_i for node h of flow i's path. The analysis only
// asks for relation anchor nodes, which lie on the path by
// construction, so a miss is a broken invariant (ErrInternal).
func (t smaxTable) at(fs *model.FlowSet, i int, h model.NodeID) (model.Time, error) {
	k := fs.Flows[i].Path.Index(h)
	if k < 0 {
		return 0, model.Errorf(model.ErrInternal, "trajectory: Smax requested for node %d not on path of flow %q",
			h, fs.Flows[i].Name)
	}
	return t[i][k], nil
}

func (t smaxTable) clone() smaxTable {
	u := make(smaxTable, len(t))
	for i := range t {
		u[i] = append([]model.Time(nil), t[i]...)
	}
	return u
}

func (t smaxTable) equal(u smaxTable) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if len(t[i]) != len(u[i]) {
			return false
		}
		for k := range t[i] {
			if t[i][k] != u[i][k] {
				return false
			}
		}
	}
	return true
}

// fillNoQueue sets the queueing-free estimate: the release jitter plus
// all upstream processing plus Lmax per link.
func (t smaxTable) fillNoQueue(fs *model.FlowSet) {
	for i := range fs.Flows {
		t.fillNoQueueRow(fs, i)
	}
}

// fillNoQueueRow seeds one flow's row with the queueing-free estimate —
// the per-flow unit the delta layer uses when only some rows restart
// from the floor.
func (t smaxTable) fillNoQueueRow(fs *model.FlowSet, i int) {
	f := fs.Flows[i]
	acc := f.Jitter
	var sat bool
	for k := range f.Path {
		t[i][k] = acc
		// A railed entry stays on the rail; every consumer reads it
		// through saturating ops, so it degrades to an Unbounded
		// verdict rather than wrapping.
		acc = model.AddSat(acc, model.AddSat(f.Cost[k], fs.Net.Lmax, &sat), &sat)
	}
}

// computeSmax builds the Smax table. It returns the table, the number
// of fixed-point sweeps used, and whether the iteration converged.
func computeSmax(fs *model.FlowSet, opt Options) (smaxTable, int, bool, error) {
	if opt.Smax != SmaxPrefixFixpoint {
		return nil, 0, false, model.Errorf(model.ErrInvalidConfig, "trajectory: unknown Smax mode %d", opt.Smax)
	}
	return prefixFixpoint(fs, opt)
}

// prefixFixpoint iterates: Smax^h_i ← bound(prefix of i ending before h)
// + Lmax, where the prefix bound is the Property-2 value computed with
// the current table. Seeded from the no-queue floor, the sweep is
// monotone non-decreasing (the bound operator is monotone in Smax), so
// it either reaches a fixed point or exceeds the horizon.
func prefixFixpoint(fs *model.FlowSet, opt Options) (smaxTable, int, bool, error) {
	t := newSmaxTable(fs)
	t.fillNoQueue(fs)
	horizon := opt.horizon()
	// Pre-build the sweep's job list; each sweep re-evaluates every
	// prefix view against the immutable previous table.
	type slot struct{ i, k int }
	total := 0
	for _, f := range fs.Flows {
		total += len(f.Path) - 1
	}
	slots := make([]slot, 0, total)
	for i, f := range fs.Flows {
		for k := 1; k < len(f.Path); k++ {
			slots = append(slots, slot{i, k})
		}
	}
	results := make([]model.Time, len(slots))
	jobs := make([]viewJob, len(slots))
	for sweep := 1; sweep <= opt.maxIterations(); sweep++ {
		for m, sl := range slots {
			jobs[m] = viewJob{view: prefixView(fs, sl.i, sl.k), dst: &results[m]}
		}
		if err := runViews(fs, opt, t, jobs); err != nil {
			return nil, sweep, false, err
		}
		next := t.clone()
		for m, sl := range slots {
			// The prefix bound is measured from generation time, so it
			// already covers the release jitter window; arrival at the
			// next node adds one link. results[m] ≤ TimeInfinity and
			// Lmax < 2^60, so the raw sum is exact.
			v := results[m] + fs.Net.Lmax
			if model.IsUnbounded(v) {
				return nil, sweep, false, model.Errorf(model.ErrOverflow,
					"trajectory: Smax prefix fixpoint overflows the time domain for flow %q node %d",
					fs.Flows[sl.i].Name, fs.Flows[sl.i].Path[sl.k])
			}
			if v > horizon {
				return nil, sweep, false, model.Errorf(model.ErrUnstable,
					"trajectory: Smax prefix fixpoint diverges past horizon for flow %q node %d",
					fs.Flows[sl.i].Name, fs.Flows[sl.i].Path[sl.k])
			}
			if v > next[sl.i][sl.k] {
				next[sl.i][sl.k] = v
			}
		}
		if t.equal(next) {
			return t, sweep, true, nil
		}
		t = next
	}
	return t, opt.maxIterations(), false, nil
}
