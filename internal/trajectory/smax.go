package trajectory

import (
	"context"

	"trajan/internal/model"
)

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

// fillFromBounds sets the global-tail estimate from per-flow end-to-end
// bounds R: Smax^h_i = Ri - tailmin(i,h), where tailmin is the minimum
// residual time from arrival at h to delivery (processing at h and all
// later nodes, Lmin per link). A packet arriving at h later than that
// would necessarily miss the bound Ri, so the estimate is sound
// whenever R is. Values are clamped below by the no-queue minimum
// arrival (Smin), which is always a valid floor.
func (t smaxTable) fillFromBounds(fs *model.FlowSet, bounds []model.Time) {
	for i, f := range fs.Flows {
		var tail model.Time
		var sat bool
		// tailmin accumulated from the back.
		tails := make([]model.Time, len(f.Path))
		for k := len(f.Path) - 1; k >= 0; k-- {
			tail = model.AddSat(tail, f.Cost[k], &sat)
			tails[k] = tail
			tail = model.AddSat(tail, fs.Net.Lmin, &sat)
		}
		for k := range f.Path {
			v := model.SubSat(bounds[i], tails[k], &sat)
			if smin := fs.SminAt(i, k); v < smin {
				v = smin
			}
			t[i][k] = v
		}
	}
}

// fillFromBoundsScratch is fillFromBounds with a caller-owned tails
// buffer (grown as needed, returned for reuse) so the engine's
// per-sweep global-tail refill allocates nothing. Values are identical
// to fillFromBounds — only the tails buffer's lifetime differs.
func (t smaxTable) fillFromBoundsScratch(fs *model.FlowSet, bounds []model.Time, scratch []model.Time) []model.Time {
	for i, f := range fs.Flows {
		var tail model.Time
		var sat bool
		scratch = growTimes(scratch, len(f.Path))
		for k := len(f.Path) - 1; k >= 0; k-- {
			tail = model.AddSat(tail, f.Cost[k], &sat)
			scratch[k] = tail
			tail = model.AddSat(tail, fs.Net.Lmin, &sat)
		}
		for k := range f.Path {
			v := model.SubSat(bounds[i], scratch[k], &sat)
			if smin := fs.SminAt(i, k); v < smin {
				v = smin
			}
			t[i][k] = v
		}
	}
	return scratch
}

// computeSmax builds the Smax table for the requested mode. It returns
// the table, the number of fixed-point sweeps used, and whether the
// iteration converged (always true for the non-iterative mode).
func computeSmax(fs *model.FlowSet, opt Options) (smaxTable, int, bool, error) {
	t := newSmaxTable(fs)
	switch opt.Smax {
	case SmaxNoQueue:
		t.fillNoQueue(fs)
		return t, 0, true, nil

	case SmaxPrefixFixpoint:
		return prefixFixpoint(fs, opt)

	case SmaxGlobalTail:
		return globalTail(fs, opt)

	default:
		return nil, 0, false, model.Errorf(model.ErrInvalidConfig, "trajectory: unknown Smax mode %d", opt.Smax)
	}
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

// globalTail iterates the full Property-2 operator on bound vectors,
// deriving Smax from each iterate via fillFromBounds. The seed is
// Options.SeedBounds when provided (must itself be sound, e.g. holistic
// results) or the per-node busy-period bound otherwise. Because the
// operator maps sound bound vectors to sound bound vectors, every
// iterate is sound; the component-wise minimum over iterates is kept.
func globalTail(fs *model.FlowSet, opt Options) (smaxTable, int, bool, error) {
	bounds := append([]model.Time(nil), opt.SeedBounds...)
	if bounds == nil {
		var err error
		bounds, err = BusyPeriodSeed(fs, opt)
		if err != nil {
			return nil, 0, false, err
		}
	} else if len(bounds) != fs.N() {
		return nil, 0, false, model.Errorf(model.ErrInvalidConfig,
			"trajectory: %d seed bounds for %d flows", len(bounds), fs.N())
	}

	best := append([]model.Time(nil), bounds...)
	t := newSmaxTable(fs)
	for sweep := 1; sweep <= opt.maxIterations(); sweep++ {
		t.fillFromBounds(fs, bounds)
		next := make([]model.Time, fs.N())
		jobs := make([]viewJob, fs.N())
		for i := range fs.Flows {
			jobs[i] = viewJob{view: fullView(fs, i), dst: &next[i]}
		}
		if err := runViews(fs, opt, t, jobs); err != nil {
			return nil, sweep, false, err
		}
		for i, r := range next {
			if r < best[i] {
				best[i] = r
			}
		}
		same := true
		for i := range next {
			if next[i] != bounds[i] {
				same = false
				break
			}
		}
		bounds = next
		if same {
			t.fillFromBounds(fs, best)
			return t, sweep, true, nil
		}
	}
	t.fillFromBounds(fs, best)
	return t, opt.maxIterations(), false, nil
}

// BusyPeriodSeed returns a crude but sound per-flow response-time
// bound, used to seed SmaxGlobalTail and as the "node busy period"
// baseline in the experiment suite.
//
// The argument is the classical holistic one: a packet arriving at a
// FIFO node inside an aggregate busy period leaves by the end of that
// busy period, so its sojourn is at most the busy-period length; the
// busy-period length at node h is the least fixed point of
//
//	bp_h = Σ_{j: h∈Pj} (1 + ⌊(bp_h + jit^h_j)/Tj⌋) · C^h_j
//
// where jit^h_j is the width of flow j's arrival window at h (release
// jitter plus accumulated upstream response variability). Since busy
// periods and jitters feed each other across nodes, the whole system is
// iterated to a global fixed point from below; every quantity grows
// monotonically, so the iteration either converges or exceeds the
// horizon (overload).
func BusyPeriodSeed(fs *model.FlowSet, opt Options) ([]model.Time, error) {
	return busyPeriodSeed(context.Background(), fs, opt)
}

// busyPeriodSeed is BusyPeriodSeed with cancellation (checked once per
// global sweep) and saturating arithmetic: a busy period that leaves
// the finite time domain is ErrOverflow, divergence past the horizon is
// ErrUnstable.
func busyPeriodSeed(ctx context.Context, fs *model.FlowSet, opt Options) ([]model.Time, error) {
	horizon := opt.horizon()
	n := fs.N()

	// jit[i][k]: arrival-window width of flow i at its k-th node.
	jit := make([][]model.Time, n)
	for i, f := range fs.Flows {
		jit[i] = make([]model.Time, len(f.Path))
		for k := range jit[i] {
			jit[i][k] = f.Jitter
		}
	}

	var sat bool
	nodeBP := make(map[model.NodeID]model.Time)
	for iter := 0; iter < opt.maxIterations(); iter++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Busy period per node under current jitters.
		for _, h := range fs.Nodes() {
			var b model.Time
			for _, j := range fs.FlowsAt(h) {
				b = model.AddSat(b, fs.Flows[j].CostAt(h), &sat)
			}
			for sub := 0; sub < opt.maxIterations(); sub++ {
				var nb model.Time
				for _, j := range fs.FlowsAt(h) {
					fj := fs.Flows[j]
					jh := jit[j][fj.Path.Index(h)]
					nb = model.AddSat(nb,
						model.MulSat(model.OnePlusFloorPosSat(model.AddSat(b, jh, &sat), fj.Period, &sat),
							fj.CostAt(h), &sat), &sat)
				}
				if sat {
					return nil, model.Errorf(model.ErrOverflow,
						"trajectory: node %d busy period overflows the time domain", h)
				}
				if nb == b {
					break
				}
				if nb > horizon {
					return nil, model.Errorf(model.ErrUnstable,
						"trajectory: node %d busy period diverges (utilization %.3f)",
						h, fs.TotalUtilizationAt(h))
				}
				b = nb
			}
			nodeBP[h] = b
		}
		// Propagate jitter: max arrival at node k+1 is max arrival at k
		// plus the node-k busy period plus Lmax; min arrival adds only
		// processing and Lmin.
		changed := false
		for i, f := range fs.Flows {
			maxArr, minArr := f.Jitter, model.Time(0)
			for k := range f.Path {
				if w := model.SubSat(maxArr, minArr, &sat); w > jit[i][k] {
					jit[i][k] = w
					changed = true
				}
				maxArr = model.AddSat(maxArr, model.AddSat(nodeBP[f.Path[k]], fs.Net.Lmax, &sat), &sat)
				minArr = model.AddSat(minArr, model.AddSat(f.Cost[k], fs.Net.Lmin, &sat), &sat)
			}
		}
		if sat {
			return nil, model.Errorf(model.ErrOverflow,
				"trajectory: busy-period seed overflows the time domain")
		}
		if !changed {
			out := make([]model.Time, n)
			for i, f := range fs.Flows {
				r := model.AddSat(f.Jitter, model.MulSat(model.Time(len(f.Path)-1), fs.Net.Lmax, &sat), &sat)
				for _, h := range f.Path {
					r = model.AddSat(r, nodeBP[h], &sat)
				}
				out[i] = r
			}
			if sat {
				return nil, model.Errorf(model.ErrOverflow,
					"trajectory: busy-period seed overflows the time domain")
			}
			return out, nil
		}
	}
	return nil, model.Errorf(model.ErrUnstable,
		"trajectory: busy-period seed did not converge in %d sweeps", opt.maxIterations())
}
