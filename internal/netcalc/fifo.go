package netcalc

import (
	"math"

	"trajan/internal/model"
)

// This file implements the multiclass-FIFO network-calculus analysis:
// per-node FIFO residual service curves with the θ parameter of
// Bouillard's accuracy-vs-tractability family (arXiv 2010.09263, after
// Cruz and Le Boudec–Thiran Prop. 6.4.1), arrival-curve propagation by
// output deconvolution, and pay-bursts-only-once convolution along each
// flow's path. "Multiclass FIFO" is meant in Jiang's sense (arXiv
// 1306.4773): all classes share one FIFO queue per node, and per-flow
// bounds are extracted from the aggregate with residual service curves
// rather than by priority separation — which is exactly the paper's
// Section 4–5 model (EF is FIFO within the class) and the discipline
// internal/sim simulates.

// ArrivalSpec overrides a flow's ingress arrival curve with an
// arbitrary token bucket in packet units: at its k-th node the flow
// offers σ·C_k + ρ·C_k·t work. Sporadic flows map losslessly onto
// σ = 1 + J/T, ρ = 1/T (a packet every ≥T with release jitter J), which
// is what AnalyzeFIFO derives when no spec is given — the spec exists
// so shaped or aggregated sources beyond the sporadic model can be
// analysed with the same machinery.
type ArrivalSpec struct {
	// Sigma is the burst in packets (≥ largest simultaneous backlog).
	Sigma float64
	// Rho is the sustained rate in packets per tick.
	Rho float64
}

// FIFOOptions tunes AnalyzeFIFO.
type FIFOOptions struct {
	// MaxIterations caps the burstiness-propagation fixed point
	// (default 256).
	MaxIterations int
	// ThetaGrid lists the candidate FIFO-residual parameters as
	// multiples of the analytic optimum θ* (see FIFOResidual); nil
	// selects {0, 0.5, 1, 2, 4}. The default grid always contains 1,
	// so the coarse search can never do worse than the closed-form
	// optimum; the other points exist to make the optimality claim
	// observable (and cheap to re-verify) rather than trusted.
	ThetaGrid []float64
	// Arrivals optionally overrides per-flow ingress arrival curves;
	// nil entries (or a nil slice) derive the sporadic token bucket.
	Arrivals []*ArrivalSpec
}

func (o FIFOOptions) maxIterations() int {
	if o.MaxIterations <= 0 {
		return 256
	}
	return o.MaxIterations
}

func (o FIFOOptions) thetaGrid() []float64 {
	if len(o.ThetaGrid) == 0 {
		return []float64{0, 0.5, 1, 2, 4}
	}
	return o.ThetaGrid
}

// FIFOResidual returns the service curve left to one flow of a FIFO
// aggregate: a server with rate-latency curve β = (rate, latency)
// shared FIFO with cross traffic bounded by the token bucket
// (sigmaC, rhoC) guarantees the flow, for every θ ≥ 0, the residual
//
//	β_θ(t) = [β(t) − sigmaC − rhoC·(t−θ)]⁺ · 1_{t>θ}
//
// (Le Boudec & Thiran, Prop. 6.4.1; the θ family is the tractability
// dial of Bouillard's FIFO analysis). For this affine instance the
// positive part closes to the rate-latency curve
//
//	RateLatency(rate−rhoC, L(θ)),
//	L(θ) = max(θ, (rate·latency + sigmaC − rhoC·θ)/(rate−rhoC)),
//
// which this function returns. Every θ yields a sound curve; the two
// branches of L cross at θ* = latency + sigmaC/rate, where the flow
// "pays the cross burst exactly once" — θ < θ* wastes latency waiting
// out traffic that cannot be ahead of the packet, θ > θ* concedes FIFO
// ordering it could have used. θ* minimizes L over the whole family,
// so it is the documented default; AnalyzeFIFO still scans the coarse
// ThetaGrid around it. Requires rhoC < rate; the caller checks.
func FIFOResidual(rate, latency, sigmaC, rhoC, theta float64) Curve {
	l := (rate*latency + sigmaC - rhoC*theta) / (rate - rhoC)
	if theta > l {
		l = theta
	}
	return RateLatency(rate-rhoC, l)
}

// fifoThetaStar is the L-minimizing parameter θ* = latency + sigmaC/rate.
func fifoThetaStar(rate, latency, sigmaC float64) float64 {
	return latency + sigmaC/rate
}

// bestResidual grid-searches FIFOResidual over grid·θ* and returns the
// curve with the smallest latency (the rate is θ-independent, so
// minimal latency is minimal in the service-curve order).
func bestResidual(rate, latency, sigmaC, rhoC float64, grid []float64) Curve {
	star := fifoThetaStar(rate, latency, sigmaC)
	best := FIFOResidual(rate, latency, sigmaC, rhoC, star)
	for _, m := range grid {
		if c := FIFOResidual(rate, latency, sigmaC, rhoC, m*star); c.latency() < best.latency() {
			best = c
		}
	}
	return best
}

// AnalyzeFIFO derives per-flow end-to-end delay bounds for the FIFO
// aggregate with the full multiclass network-calculus pipeline:
//
//  1. Each flow enters its ingress as a token bucket — the sporadic
//     (σ, ρ) = (C·(1+J/T), C/T), or FIFOOptions.Arrivals.
//  2. Burstiness propagates along each path by the smaller of two
//     sound output curves per hop — delay-based widening by the
//     node's aggregate FIFO delay (Analyze's rule), or deconvolution
//     against the flow's θ*-residual plus the store-and-forward
//     packetizer term — iterated with the per-node cross burstinesses
//     to a least fixed point from below. Because the per-hop growth
//     never exceeds Analyze's, AnalyzeFIFO never reports a looser
//     bound than Analyze.
//  3. Per flow, two sound end-to-end forms are evaluated and the
//     smaller taken:
//     (a) the sum over visited nodes of the FIFO-aggregate delays
//     hDev(Σ_j α_j, β), exactly Analyze's assembly but over the
//     tighter converged burstinesses; and
//     (b) pay-bursts-only-once — the horizontal deviation of the
//     flow's ingress curve against the (min,+) convolution of its
//     per-node θ-residuals (grid-searched), which pays the flow's
//     own burst once for the whole path instead of at every hop.
//     Form (b) convolves work units across nodes, so it only applies
//     when the flow's cost is uniform along its path (true for every
//     workload in this repository); otherwise (a) stands alone.
//  4. The bound is J + min(a,b) + (|P|−1)·Lmax + δ (the flow's
//     Blocking summed), with every
//     float→Time crossing saturating to an explicit Unbounded verdict.
//
// Divergence (some node's utilization exceeding 1, or a
// non-converging burstiness feedback loop) yields TimeInfinity bounds
// with Stable=false, never an error: overload is an analysis outcome,
// not a failure.
func AnalyzeFIFO(fs *model.FlowSet, opt FIFOOptions) (*Result, error) {
	n := fs.N()
	if opt.Arrivals != nil && len(opt.Arrivals) != n {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"netcalc: %d arrival specs for %d flows", len(opt.Arrivals), n)
	}
	// sigma[i][k], rho[i][k]: flow i's token bucket entering its k-th
	// node, in that node's work units.
	sigma := make([][]float64, n)
	rho := make([][]float64, n)
	for i, f := range fs.Flows {
		sPkt, rPkt := 1+float64(f.Jitter)/float64(f.Period), 1/float64(f.Period)
		if opt.Arrivals != nil && opt.Arrivals[i] != nil {
			a := opt.Arrivals[i]
			if a.Sigma <= 0 || a.Rho <= 0 {
				return nil, model.Errorf(model.ErrInvalidConfig,
					"netcalc: flow %q: non-positive arrival spec (σ=%v pkts, ρ=%v pkts/tick)",
					f.Name, a.Sigma, a.Rho)
			}
			sPkt, rPkt = a.Sigma, a.Rho
		}
		sigma[i] = make([]float64, len(f.Path))
		rho[i] = make([]float64, len(f.Path))
		for k := range f.Path {
			c := float64(f.Cost[k])
			sigma[i][k] = sPkt * c
			rho[i][k] = rPkt * c
		}
	}

	linkJitter := float64(fs.Net.Lmax - fs.Net.Lmin)
	// crossSigma(i, k) sums the other flows' burstiness at flow i's
	// k-th node under the current iterate; crossRho likewise for rates
	// (rates never change across iterations).
	crossAt := func(i, k int) (cs, cr float64) {
		h := fs.Flows[i].Path[k]
		for _, j := range fs.FlowsAt(h) {
			if j == i {
				continue
			}
			kj := fs.Flows[j].Path.Index(h)
			cs += sigma[j][kj]
			cr += rho[j][kj]
		}
		return cs, cr
	}

	diverged := false
	converged := false
	for iter := 0; iter < opt.maxIterations() && !diverged && !converged; iter++ {
		converged = true
		for i, f := range fs.Flows {
			for k := 0; k+1 < len(f.Path); k++ {
				cs, cr := crossAt(i, k)
				if cr+rho[i][k] > 1+1e-9 {
					diverged = true // utilization above capacity: no residual rate
					break
				}
				// Two sound output curves for flow i leaving node k, the
				// smaller taken per hop:
				//   - delay-based: packets depart at most d = cs + σ_own
				//     (the node's FIFO-aggregate delay) after release, so
				//     σ grows by ρ·d — exactly Analyze's propagation;
				//   - deconvolution against the θ*-residual
				//     RateLatency(1−cr, cs) gives the fluid output
				//     σ + ρ·cs, and re-packetizing (the node forwards
				//     whole packets) adds at most one in-progress packet
				//     C_k (Le Boudec Thm 1.7.4).
				// Taking the min keeps the fixed point no larger than
				// Analyze's while the deconvolution route wins for bursty
				// flows (ρ·σ_own > C_k).
				grow := rho[i][k] * (cs + sigma[i][k])
				if alt := rho[i][k]*cs + float64(f.Cost[k]); alt < grow {
					grow = alt
				}
				pkts := (sigma[i][k] + grow + rho[i][k]*linkJitter) / float64(f.Cost[k])
				if want := pkts * float64(f.Cost[k+1]); want > sigma[i][k+1]+1e-9 {
					sigma[i][k+1] = want
					converged = false
				}
			}
			if diverged {
				break
			}
		}
	}

	res := &Result{
		Bounds:    make([]model.Time, n),
		NodeDelay: make(map[model.NodeID]float64),
		Stable:    true,
	}
	// Aggregate per-node delays under the converged burstinesses (the
	// same quantity Analyze reports, for comparability of NodeDelay).
	for _, h := range fs.Nodes() {
		agg := Zero()
		for _, j := range fs.FlowsAt(h) {
			k := fs.Flows[j].Path.Index(h)
			agg = agg.Add(TokenBucket(sigma[j][k], rho[j][k]))
		}
		res.NodeDelay[h] = HorizontalDeviation(agg, RateLatency(1, 0))
	}
	if diverged || !converged {
		for i := range res.Bounds {
			res.Bounds[i] = model.TimeInfinity
		}
		res.Stable = false
		return res, nil
	}

	grid := opt.thetaGrid()
	for i, f := range fs.Flows {
		// (a) Per-node FIFO-aggregate delays, summed.
		sumForm := 0.0
		for _, h := range f.Path {
			d := res.NodeDelay[h]
			if math.IsInf(d, 1) {
				sumForm = math.Inf(1)
				break
			}
			sumForm += d
		}
		best := sumForm
		// (b) PBOO over the θ-residual tandem, when units are uniform.
		// Every hop but the last is followed by a store-and-forward
		// packetizer (the node forwards whole packets), which costs the
		// flow its own packet size against the residual: the offered
		// curve becomes [β_θ − C_i]⁺ = RateLatency(1−ρc, L + C_i/(1−ρc))
		// (Le Boudec Thm 1.7.1). Without this the fluid convolution
		// would claim a three-hop pipeline is as fast as one hop.
		if uniformCost(f) {
			var tandem Curve
			ok := true
			for k := range f.Path {
				cs, cr := crossAt(i, k)
				if cr >= 1-1e-12 {
					ok = false // no residual rate left for the flow
					break
				}
				residual := bestResidual(1, 0, cs, cr, grid)
				if k+1 < len(f.Path) {
					residual = RateLatency(1-cr, residual.latency()+float64(f.Cost[k])/(1-cr))
				}
				if k == 0 {
					tandem = residual
				} else {
					tandem = ConvolveConvex(tandem, residual)
				}
			}
			if ok {
				d := HorizontalDeviation(TokenBucket(sigma[i][0], rho[i][0]), tandem)
				if d < best {
					best = d
				}
			}
		}
		if math.IsInf(best, 1) {
			res.Bounds[i] = model.TimeInfinity
			res.Stable = false
			continue
		}
		var sat bool
		total := float64(f.Jitter) + best + float64(len(f.Path)-1)*float64(fs.Net.Lmax) +
			float64(f.BlockingOver(len(f.Path), &sat))
		b := ceilTime(total, &sat)
		if sat {
			res.Bounds[i] = model.TimeInfinity
			res.Stable = false
			continue
		}
		res.Bounds[i] = b
	}
	return res, nil
}

// uniformCost reports whether the flow's per-node cost is the same on
// every visited node — the condition under which per-node service
// curves share work units and may be convolved across the path.
func uniformCost(f *model.Flow) bool {
	for _, c := range f.Cost[1:] {
		if c != f.Cost[0] {
			return false
		}
	}
	return true
}
