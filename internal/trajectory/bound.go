package trajectory

import (
	"fmt"
	"sort"

	"trajan/internal/model"
)

// pathView is the unit of analysis: a flow (or a prefix of a flow)
// whose latest delivery we bound against the full flow set. Prefix
// views are what the SmaxPrefixFixpoint estimator iterates over.
type pathView struct {
	flow int        // index of the underlying flow in the flow set
	path model.Path // analysed path: full Pi or a prefix of it
	cost []model.Time
}

func fullView(fs *model.FlowSet, i int) pathView {
	f := fs.Flows[i]
	return pathView{flow: i, path: f.Path, cost: f.Cost}
}

func prefixView(fs *model.FlowSet, i, k int) pathView {
	f := fs.Flows[i]
	return pathView{flow: i, path: f.Path[:k], cost: f.Cost[:k]}
}

// interferer is an intersecting flow's relation to the analysed path,
// with its precomputed A_{i,j} offset.
type interferer struct {
	j   int
	rel model.PathRelation
	a   model.Time // A_{i,j}
}

// boundCtx carries everything the W computation needs for one view.
type boundCtx struct {
	fs   *model.FlowSet
	opt  Options
	view pathView
	smax smaxTable

	inter  []interferer
	bslow  model.Time
	slow   model.NodeID // chosen slow_i (tie-broken to minimize the bound)
	cslow  model.Time   // C^{slow_i}_i
	maxSum model.Time   // Σ_{h≠slow_i} max_{j same-dir} C^h_j
	fixed  model.Time   // maxSum - C^last + (q-1)·Lmax + δ
	clast  model.Time
	period model.Time
	jitter model.Time
	delta  model.Time
	// sat is the sticky saturation flag threaded through every derived
	// quantity above; bound() turns it (via the rTopSat guard) into the
	// explicit Unbounded verdict. The flag expressions mirror the
	// engine's viewCache exactly — see harden.go for why.
	sat bool
}

// newBoundCtx prepares the per-view context: relations, A terms, the
// Bslow busy-period fixed point and the slow-node tie-break.
func newBoundCtx(fs *model.FlowSet, opt Options, view pathView, smax smaxTable) (*boundCtx, error) {
	f := fs.Flows[view.flow]
	c := &boundCtx{
		fs: fs, opt: opt, view: view, smax: smax,
		period: f.Period,
		jitter: f.Jitter,
		clast:  view.cost[len(view.cost)-1],
	}
	c.delta = f.BlockingOver(len(view.path), &c.sat)

	for j, fj := range fs.Flows {
		if j == view.flow {
			continue
		}
		rel := model.RelateToPath(view.path, fj)
		if !rel.Intersects {
			continue
		}
		a, err := c.offsetA(rel, j)
		if err != nil {
			return nil, err
		}
		c.inter = append(c.inter, interferer{j: j, rel: rel, a: a})
	}

	if err := c.computeBslow(); err != nil {
		return nil, err
	}
	c.chooseSlow()
	c.fixed = model.AddSat(
		model.AddSat(
			model.SubSat(c.maxSum, c.clast, &c.sat),
			model.MulSat(model.Time(len(c.view.path)-1), fs.Net.Lmax, &c.sat), &c.sat),
		c.delta, &c.sat)
	return c, nil
}

// offsetA computes A_{i,j} (Lemma 2):
//
//	A_{i,j} = Smax^{first_{j,i}}_i - Smin^{first_{j,i}}_j
//	        - M^{first_{i,j}}_i + Smax^{first_{i,j}}_j + Jj
//
// It is the length, beyond t, of the generation window over which
// packets of τj can reach the analysed packet's busy-period chain.
// The saturating expression tree (aConst first, then the Smax terms) is
// the engine's exactly: engine.buildViews folds aConst at build time and
// reconstitutes A per sweep, so the two paths must set the sticky flag
// from identical operand sequences to stay bit-identical.
func (c *boundCtx) offsetA(rel model.PathRelation, j int) (model.Time, error) {
	fj := c.fs.Flows[j]
	smaxIAtFJI, err := c.smax.at(c.fs, c.view.flow, rel.FirstJI)
	if err != nil {
		return 0, err
	}
	smaxJAtFIJ, err := c.smax.at(c.fs, j, rel.FirstIJ)
	if err != nil {
		return 0, err
	}
	// first_{j,i} lies on Pj by construction of the path relation.
	sminJ := c.fs.SminAt(j, c.fs.PathIndex(j, rel.FirstJI))
	m := c.mTerm(rel.FirstIJ)
	aConst := model.SubSat(model.SubSat(fj.Jitter, sminJ, &c.sat), m, &c.sat)
	return model.AddSat(model.AddSat(smaxIAtFJI, smaxJAtFIJ, &c.sat), aConst, &c.sat), nil
}

// mTerm computes M^h_i relative to the analysed (possibly prefix) path:
// for every node before h on the view path, the smallest processing
// cost among same-direction flows that visit it, plus Lmin per link.
func (c *boundCtx) mTerm(h model.NodeID) model.Time {
	k := c.view.path.Index(h)
	if k < 0 {
		// Internal invariant: h is first_{i,j} of an intersecting
		// relation, which lies on the analysed path by construction.
		panic(fmt.Sprintf("trajectory: M node %d not on analysed path", h))
	}
	var s model.Time
	for m := 0; m < k; m++ {
		hp := c.view.path[m]
		minC := c.view.cost[m]
		for _, in := range c.inter {
			if !in.rel.SameDirection {
				continue
			}
			if cc := c.fs.Flows[in.j].CostAt(hp); cc > 0 && cc < minC {
				minC = cc
			}
		}
		s = model.AddSat(s, model.AddSat(minC, c.fs.Net.Lmin, &c.sat), &c.sat)
	}
	return s
}

// computeBslow solves the busy-period equation through the shared
// bslowFixpoint (harden.go), so divergence and overflow verdicts match
// the engine's exactly.
func (c *boundCtx) computeBslow() error {
	_, selfSlow := slowOfView(c.view)
	periods := make([]model.Time, len(c.inter))
	charges := make([]model.Time, len(c.inter))
	for x, in := range c.inter {
		periods[x] = c.fs.Flows[in.j].Period
		charges[x] = in.rel.CSlowJI
	}
	b, err := bslowFixpoint(c.fs, c.view.flow, len(c.view.path), c.opt, c.period, selfSlow, periods, charges)
	if err != nil {
		return err
	}
	c.bslow = b
	return nil
}

// slowOfView returns a maximal-cost node of the view and its cost.
func slowOfView(v pathView) (model.NodeID, model.Time) {
	best, bc := v.path[0], v.cost[0]
	for k := 1; k < len(v.path); k++ {
		if v.cost[k] > bc {
			best, bc = v.path[k], v.cost[k]
		}
	}
	return best, bc
}

// chooseSlow picks slow_i among the maximal-cost nodes of the analysed
// path. Any maximal-cost node satisfies the derivation's requirement
// (∀h: C^slow ≥ C^h), so the analysis is free to pick the candidate
// that minimizes the residual Σ_{h≠slow} max_{j same-dir} C^h_j — i.e.
// to exclude the node carrying the largest counted-twice term.
func (c *boundCtx) chooseSlow() {
	_, bc := slowOfView(c.view)
	c.cslow = bc

	var total model.Time
	sameDirMax := make([]model.Time, len(c.view.path))
	for k, h := range c.view.path {
		mx := c.view.cost[k]
		for _, in := range c.inter {
			if !in.rel.SameDirection {
				continue
			}
			if cc := c.fs.Flows[in.j].CostAt(h); cc > mx {
				mx = cc
			}
		}
		sameDirMax[k] = mx
		total = model.AddSat(total, mx, &c.sat)
	}

	bestK := -1
	for k := range c.view.path {
		if c.view.cost[k] != bc {
			continue
		}
		if bestK < 0 || sameDirMax[k] > sameDirMax[bestK] {
			bestK = k
		}
	}
	c.slow = c.view.path[bestK]
	c.maxSum = model.SubSat(total, sameDirMax[bestK], &c.sat)
}

// latestStart evaluates W^{last}_{i,t} for the analysed view at release
// time t (Property 1 / Property 3 when δ ≠ 0).
func (c *boundCtx) latestStart(t model.Time) model.Time {
	w := c.fixed
	w += c.opt.count(t+c.jitter, c.period) * c.cslow
	for _, in := range c.inter {
		w += c.opt.count(t+in.a, c.fs.Flows[in.j].Period) * in.rel.CSlowJI
	}
	return w
}

// criticalInstants enumerates the release times t in [-Ji, -Ji+Bslow)
// at which W can jump: the window start plus every point where one of
// the floor terms increments. Between jumps, W is constant and
// W + C - t strictly decreases, so the maximum of Property 2 is
// attained on this set.
func (c *boundCtx) criticalInstants() []model.Time {
	lo := -c.jitter
	hi := lo + c.bslow
	ts := []model.Time{lo}
	if c.opt.DisableTScan {
		return ts
	}
	add := func(offset, period model.Time) {
		// Jump where (t + offset) ≡ 0 (mod period): the closed-window
		// count increments exactly at t = k·period - offset. The strict
		// variant shifts jumps one tick later.
		shift := model.Time(0)
		if c.opt.StrictWindow {
			shift = 1
		}
		kLo := model.CeilDiv(lo+offset-shift, period)
		for k := kLo; ; k++ {
			t := k*period - offset + shift
			if t >= hi {
				return
			}
			if t > lo {
				ts = append(ts, t)
			}
		}
	}
	add(c.jitter, c.period)
	for _, in := range c.inter {
		add(in.a, c.fs.Flows[in.j].Period)
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// bound computes the view's worst-case end-to-end response-time bound
// (Property 2 / 3) and the release time attaining it. It first runs the
// saturating rTopSat guard over the scan's upper envelope: if any input
// or the envelope itself saturated, the bound is the explicit Unbounded
// verdict (TimeInfinity, critical t 0); otherwise every quantity the
// scan touches is inside the exact int64 range and the original
// unchecked arithmetic below is provably wrap-free.
func (c *boundCtx) bound() (model.Time, model.Time) {
	lo := -c.jitter
	hi := lo + c.bslow
	as := make([]model.Time, len(c.inter))
	iperiods := make([]model.Time, len(c.inter))
	icharges := make([]model.Time, len(c.inter))
	for x, in := range c.inter {
		as[x] = in.a
		iperiods[x] = c.fs.Flows[in.j].Period
		icharges[x] = in.rel.CSlowJI
	}
	if _, saturated := rTopSat(c.opt, c.sat, c.fixed, c.jitter, c.period, c.cslow, c.clast,
		lo, hi, as, iperiods, icharges); saturated {
		return model.TimeInfinity, 0
	}
	var bestR, bestT model.Time
	first := true
	for _, t := range c.criticalInstants() {
		r := c.latestStart(t) + c.clast - t
		if first || r > bestR {
			bestR, bestT, first = r, t, false
		}
	}
	return bestR, bestT
}

// boundForView runs the complete Property-2 computation for a view.
func boundForView(fs *model.FlowSet, opt Options, view pathView, smax smaxTable) (model.Time, error) {
	c, err := newBoundCtx(fs, opt, view, smax)
	if err != nil {
		return 0, err
	}
	r, _ := c.bound()
	return r, nil
}
