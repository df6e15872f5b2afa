// Package holistic implements the holistic schedulability analysis
// (Tindell & Clark; Spuri) specialized to FIFO-scheduled flows — the
// comparison baseline of the paper's Table 2.
//
// The holistic approach analyses each visited node in isolation under
// the locally worst case, propagating response-time variability from
// one node to the next as release jitter: the minimum and maximum
// response times on node h induce an arrival jitter on node h+1, which
// inflates the worst case there, and so on. Because the per-node worst
// cases may be jointly impossible, the resulting end-to-end bound is
// pessimistic — quantifying that pessimism against the trajectory
// approach is the point of the paper's example.
package holistic

import (
	"trajan/internal/model"
)

// Options tunes the holistic iteration.
type Options struct {
	// MaxIterations caps the global jitter-propagation sweeps and the
	// per-node busy-period fixed points. Zero selects 256.
	MaxIterations int
	// Horizon aborts when any busy period or response exceeds it.
	// Divergence of the holistic jitter feedback makes busy periods
	// grow geometrically (and sweeps cost time proportional to them),
	// so the default is a deliberately modest 1<<20 ticks; raise it for
	// systems whose genuine busy periods are longer.
	Horizon model.Time
}

func (o Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return 256
	}
	return o.MaxIterations
}

func (o Options) horizon() model.Time {
	if o.Horizon <= 0 {
		return 1 << 20
	}
	if o.Horizon > model.TimeInfinity {
		return model.TimeInfinity
	}
	return o.Horizon
}

// Result is the outcome of a holistic analysis.
type Result struct {
	// Bounds[i] is the holistic worst-case end-to-end response time.
	Bounds []model.Time
	// Jitters[i] is the end-to-end jitter per Definition 2.
	Jitters []model.Time
	// NodeResponse[i][k] is the worst-case sojourn of flow i at the
	// k-th node of its path.
	NodeResponse [][]model.Time
	// ArrivalJitter[i][k] is the arrival-window width of flow i at the
	// k-th node of its path after convergence.
	ArrivalJitter [][]model.Time
	// Sweeps is the number of global propagation sweeps used.
	Sweeps int
}

// Analyze runs the holistic analysis over the flow set.
//
// Per node h, the worst-case sojourn of a packet m of flow i is the
// classical FIFO busy-period maximization: if m arrives x after the
// start of the aggregate busy period, every packet arriving no later
// than m is served first, so
//
//	sojourn_i(x) = Σ_j (1 + ⌊(x + jit^h_j)/Tj⌋)⁺ · C^h_j − x
//
// (the sum includes flow i itself — m and its own predecessors), and
// r^h_i = max over the jump points x ∈ [0, bp_h). Arrival jitters are
// then recomputed from the per-node responses and the whole system is
// swept until a fixed point is reached from below.
func Analyze(fs *model.FlowSet, opt Options) (*Result, error) {
	n := fs.N()
	horizon := opt.horizon()

	jit := make([][]model.Time, n)
	resp := make([][]model.Time, n)
	for i, f := range fs.Flows {
		jit[i] = make([]model.Time, len(f.Path))
		resp[i] = make([]model.Time, len(f.Path))
		for k := range jit[i] {
			jit[i][k] = f.Jitter
			resp[i][k] = f.Cost[k]
		}
	}

	sweeps := 0
	for ; sweeps < opt.maxIterations(); sweeps++ {
		changed := false
		for _, h := range fs.Nodes() {
			at := fs.FlowsAt(h)
			bp, err := nodeBusyPeriod(fs, h, at, jit, opt)
			if err != nil {
				return nil, err
			}
			for _, i := range at {
				r := nodeSojourn(fs, h, i, at, jit, bp, opt)
				k := fs.Flows[i].Path.Index(h)
				if r > resp[i][k] {
					if model.IsUnbounded(r) {
						return nil, model.Errorf(model.ErrOverflow, "holistic: response of flow %q at node %d overflows the time domain",
							fs.Flows[i].Name, h)
					}
					if r > horizon {
						return nil, model.Errorf(model.ErrUnstable, "holistic: response of flow %q at node %d exceeds horizon",
							fs.Flows[i].Name, h)
					}
					resp[i][k] = r
					changed = true
				}
			}
		}
		// Propagate: arrival window at node k+1 widens to
		// (max upstream response) − (min upstream traversal).
		for i, f := range fs.Flows {
			var psat bool
			maxArr, minArr := f.Jitter, model.Time(0)
			for k := range f.Path {
				if w := model.SubSat(maxArr, minArr, &psat); w > jit[i][k] {
					jit[i][k] = w
					changed = true
				}
				maxArr = model.AddSat(maxArr, model.AddSat(resp[i][k], fs.Net.Lmax, &psat), &psat)
				minArr = model.AddSat(minArr, model.AddSat(f.Cost[k], fs.Net.Lmin, &psat), &psat)
			}
			if psat {
				return nil, model.Errorf(model.ErrOverflow, "holistic: jitter propagation overflows the time domain for flow %q",
					f.Name)
			}
		}
		if !changed {
			break
		}
	}
	if sweeps == opt.maxIterations() {
		return nil, model.Errorf(model.ErrUnstable, "holistic: no fixed point within %d sweeps", sweeps)
	}

	res := &Result{
		Bounds:        make([]model.Time, n),
		Jitters:       make([]model.Time, n),
		NodeResponse:  resp,
		ArrivalJitter: jit,
		Sweeps:        sweeps + 1,
	}
	for i, f := range fs.Flows {
		// A saturated end-to-end sum degrades to an explicit Unbounded
		// verdict (TimeInfinity), never a wrapped finite number.
		var bsat bool
		r := model.AddSat(f.Jitter, model.MulSat(model.Time(len(f.Path)-1), fs.Net.Lmax, &bsat), &bsat)
		for k := range f.Path {
			r = model.AddSat(r, resp[i][k], &bsat)
		}
		// Lemma 4's non-preemption penalty δi of an EF flow (Section 6).
		r = model.AddSat(r, f.BlockingOver(len(f.Path), &bsat), &bsat)
		if bsat {
			r = model.TimeInfinity
		}
		res.Bounds[i] = r
		res.Jitters[i] = model.SubSat(r, f.MinTraversal(fs.Net.Lmin), &bsat)
	}
	return res, nil
}

// nodeBusyPeriod solves bp = Σ_j (1+⌊(bp+jit_j)/Tj⌋)⁺·C^h_j from below.
func nodeBusyPeriod(fs *model.FlowSet, h model.NodeID, at []int, jit [][]model.Time, opt Options) (model.Time, error) {
	var sat bool
	var b model.Time
	for _, j := range at {
		b = model.AddSat(b, fs.Flows[j].CostAt(h), &sat)
	}
	for iter := 0; iter < opt.maxIterations(); iter++ {
		var nb model.Time
		for _, j := range at {
			fj := fs.Flows[j]
			jh := jit[j][fj.Path.Index(h)]
			nb = model.AddSat(nb,
				model.MulSat(model.OnePlusFloorPosSat(model.AddSat(b, jh, &sat), fj.Period, &sat), fj.CostAt(h), &sat), &sat)
		}
		if sat || model.IsUnbounded(nb) {
			return 0, model.Errorf(model.ErrOverflow, "holistic: node %d busy period overflows the time domain", h)
		}
		if nb == b {
			return b, nil
		}
		if nb > opt.horizon() {
			return 0, model.Errorf(model.ErrUnstable, "holistic: node %d busy period diverges (utilization %.3f)",
				h, fs.TotalUtilizationAt(h))
		}
		b = nb
	}
	return 0, model.Errorf(model.ErrUnstable, "holistic: node %d busy period did not converge", h)
}

// nodeSojourn maximizes sojourn_i(x) over the candidate arrival offsets
// x in [0, bp): 0 and the points where any flow's packet count jumps.
//
// The scan is capped: with K = Σ_j (1 + jit_j/Tj)·C^h_j and node
// utilization ν, work(x) ≤ K + ν·x, so sojourn(x) ≤ K − (1−ν)·x,
// which falls below sojourn(0) once x exceeds (K − work(0))/(1−ν).
// The cap keeps each sweep's cost proportional to the real candidate
// range rather than to a diverging busy period.
func nodeSojourn(fs *model.FlowSet, h model.NodeID, i int, at []int, jit [][]model.Time, bp model.Time, opt Options) model.Time {
	// A saturated work sum makes the sojourn Unbounded; the caller maps
	// that to ErrOverflow. The scan itself stays exact: x < bp and bp was
	// certified finite by nodeBusyPeriod under the same jitters.
	var sat bool
	work := func(x model.Time) model.Time {
		var w model.Time
		for _, j := range at {
			fj := fs.Flows[j]
			jh := jit[j][fj.Path.Index(h)]
			w = model.AddSat(w,
				model.MulSat(model.OnePlusFloorPosSat(model.AddSat(x, jh, &sat), fj.Period, &sat), fj.CostAt(h), &sat), &sat)
		}
		return w
	}
	best := work(0)
	if sat {
		return model.TimeInfinity
	}
	limit := bp
	if nu := fs.TotalUtilizationAt(h); nu < 1 {
		var k float64
		for _, j := range at {
			fj := fs.Flows[j]
			jh := jit[j][fj.Path.Index(h)]
			k += (1 + float64(jh)/float64(fj.Period)) * float64(fj.CostAt(h))
		}
		if c := model.Time((k-float64(best))/(1-nu)) + 2; c < limit {
			limit = c
		}
	}
	for _, j := range at {
		fj := fs.Flows[j]
		jh := jit[j][fj.Path.Index(h)]
		// Jumps at x = k·Tj − jh, for x in (0, limit].
		for k := model.FloorDiv(jh, fj.Period) + 1; ; k++ {
			x := k*fj.Period - jh
			if x > limit || x >= bp {
				break
			}
			if x <= 0 {
				continue
			}
			if s := model.SubSat(work(x), x, &sat); s > best {
				best = s
			}
			if sat {
				return model.TimeInfinity
			}
		}
	}
	return best
}
