package trajectory

import (
	"context"
	"math/big"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// This file holds the overflow- and cancellation-hardening primitives
// shared verbatim by the incremental engine (engine.go) and the
// reference implementation (reference.go / bound.go). Sharing them is
// not a convenience: the differential tests require the two paths to
// return bit-identical results AND identical error strings, so the
// saturation decisions (which sticky flags get set, which verdicts or
// error kinds come out) must be computed by the same code on both
// sides.

// bslowFixpoint solves the paper's busy-period equation
//
//	Bslow_i = Σ_{j} ⌈Bslow_i/Tj⌉ · C^{slow_{j,i}}_j
//
// (the flow itself included) by fixed-point iteration from the
// one-packet-per-flow floor, with saturating arithmetic, for the view
// of flow i over its first plen nodes. A saturated iterate is
// ErrOverflow; an iterate past the horizon is ErrUnstable, reported
// with the equation's load (see bslowLoad), which can reach 1 while
// every node is below it, and the highest node utilisation on the
// view's path; exhausting the iteration cap without convergence is
// ErrUnstable as well.
func bslowFixpoint(fs *model.FlowSet, i, plen int, opt Options, selfPeriod, selfSlow model.Time, periods, charges []model.Time) (model.Time, error) {
	name := fs.Flows[i].Name
	var sat bool
	b := selfSlow
	for _, c := range charges {
		b = model.AddSat(b, c, &sat)
	}
	horizon := opt.horizon()
	for iter := 0; iter < opt.maxIterations(); iter++ {
		// b ≤ TimeInfinity, every period ≥ 1: CeilDiv is exact here and
		// the quotient stays inside int64; MulSat/AddSat rail the rest.
		nb := model.MulSat(model.CeilDiv(b, selfPeriod), selfSlow, &sat)
		for x := range periods {
			nb = model.AddSat(nb, model.MulSat(model.CeilDiv(b, periods[x]), charges[x], &sat), &sat)
		}
		if sat || model.IsUnbounded(nb) {
			return 0, model.Errorf(model.ErrOverflow,
				"trajectory: busy period of flow %q overflows the time domain", name)
		}
		if nb == b {
			if tr := opt.Tracer; tr != nil {
				tr.Emit(obs.Event{Type: obs.EvBslow, Flow: name, Iters: iter + 1, Value: b})
			}
			return b, nil
		}
		if nb > horizon {
			return 0, bslowUnstable(fs, i, plen, horizon, bslowLoad(selfPeriod, selfSlow, periods, charges, nil))
		}
		b = nb
	}
	return 0, model.Errorf(model.ErrUnstable,
		"trajectory: busy period of flow %q did not converge in %d iterations",
		name, opt.maxIterations())
}

// bslowFixpointGrouped is bslowFixpoint over terms grouped by identical
// (period, charge) pairs: group g contributes mults[g] copies of
// ⌈b/periods[g]⌉·charges[g] per iterate, computed as one multiplication
// instead of mults[g] additions. The engine uses it with the build
// scratch's groups; the reference keeps the per-interferer fold.
//
// The two folds are value- AND flag-equivalent, which is what the
// differential tests require:
//
//   - Values: every term is exact until it saturates, addition of exact
//     non-negative terms is order-independent, and q·C·mult equals the
//     mult-fold sum of q·C exactly.
//   - Sticky flag: all terms are non-negative, so a partial AddSat sum
//     rails iff the total rails — independent of grouping and order.
//     The extra MulSat(q·C, mult) can only rail when its group subtotal
//     does, which rails the reference's running sum too; conversely any
//     railed reference partial sum is ≤ the grouped total, railing it.
//
// Convergence, horizon and overflow checks therefore fire on identical
// iterates in identical iterations, producing identical error strings
// and EvBslow trace events.
func bslowFixpointGrouped(fs *model.FlowSet, i, plen int, opt Options, selfPeriod, selfSlow model.Time, periods, charges, mults []model.Time) (model.Time, error) {
	name := fs.Flows[i].Name
	var sat bool
	b := selfSlow
	for g := range charges {
		b = model.AddSat(b, model.MulSat(charges[g], mults[g], &sat), &sat)
	}
	horizon := opt.horizon()
	for iter := 0; iter < opt.maxIterations(); iter++ {
		nb := model.MulSat(model.CeilDiv(b, selfPeriod), selfSlow, &sat)
		for g := range periods {
			nb = model.AddSat(nb, model.MulSat(model.MulSat(model.CeilDiv(b, periods[g]), charges[g], &sat), mults[g], &sat), &sat)
		}
		if sat || model.IsUnbounded(nb) {
			return 0, model.Errorf(model.ErrOverflow,
				"trajectory: busy period of flow %q overflows the time domain", name)
		}
		if nb == b {
			if tr := opt.Tracer; tr != nil {
				tr.Emit(obs.Event{Type: obs.EvBslow, Flow: name, Iters: iter + 1, Value: b})
			}
			return b, nil
		}
		if nb > horizon {
			return 0, bslowUnstable(fs, i, plen, horizon, bslowLoad(selfPeriod, selfSlow, periods, charges, mults))
		}
		b = nb
	}
	return 0, model.Errorf(model.ErrUnstable,
		"trajectory: busy period of flow %q did not converge in %d iterations",
		name, opt.maxIterations())
}

// bslowLoad is the load of the busy-period equation,
// Σ_j C^{slow_{j,i}}_j / Tj with the flow itself included: every flow
// that meets τi charged at its slowest shared node. It is summed as an
// exact rational, so the grouped (mults non-nil, mults[g] copies of a
// term) and per-interferer folds give the same value.
func bslowLoad(selfPeriod, selfSlow model.Time, periods, charges, mults []model.Time) float64 {
	load := big.NewRat(int64(selfSlow), int64(selfPeriod))
	var term big.Rat
	for x := range periods {
		term.SetFrac64(int64(charges[x]), int64(periods[x]))
		if mults != nil {
			term.Mul(&term, new(big.Rat).SetInt64(int64(mults[x])))
		}
		load.Add(load, &term)
	}
	f, _ := load.Float64()
	return f
}

// bslowUnstable is the divergence error of both busy-period folds for
// the view of flow i over its first plen nodes.
func bslowUnstable(fs *model.FlowSet, i, plen int, horizon model.Time, load float64) error {
	return model.Errorf(model.ErrUnstable,
		"trajectory: busy period of flow %q diverges past horizon %d (Bslow load Σ C^slow_j/T_j = %.3f over the flows meeting it, the flow included; highest node utilisation on its path %.3f)",
		fs.Flows[i].Name, horizon, load, maxPathUtil(fs, fs.Flows[i].Path[:plen]))
}

// maxPathUtil is the highest node utilisation Σ_j C^h_j/Tj over the
// nodes h of path, every flow visiting h included, summed as an exact
// rational like bslowLoad.
func maxPathUtil(fs *model.FlowSet, path model.Path) float64 {
	var best, u, term big.Rat
	for _, h := range path {
		u.SetInt64(0)
		for _, j := range fs.FlowsAt(h) {
			term.SetFrac64(int64(fs.CostOf(j, h)), int64(fs.Flows[j].Period))
			u.Add(&u, &term)
		}
		if u.Cmp(&best) > 0 {
			best.Set(&u)
		}
	}
	f, _ := best.Float64()
	return f
}

// rTopSat computes, with saturating arithmetic, the upper envelope of
// the Property-2 scan: W(hi) + C^last − lo, where hi = lo + Bslow is
// the (exclusive) top of the scanned release window. Every packet-count
// term of W is non-decreasing in t and −t is maximal at t = lo, so
// r(t) = W(t) + C^last − t ≤ rTopSat for every scanned t.
//
// The returned flag is the saturation verdict for the whole scan: when
// it is false, every quantity the raw scan manipulates is provably
// inside the exact int64 range (inputs are validated < 2^60 and all
// intermediate sums are bounded by the envelope), so the scan may — and
// does — run the original unchecked arithmetic, keeping the engine and
// reference paths bit-identical to the pre-hardening code. When it is
// true the bound degrades to the explicit Unbounded verdict
// (TimeInfinity); no wrapped finite value can escape.
//
// sat carries the build-time saturation state of the view's constants
// (M terms, maxSum, fixed, A constants) into the decision.
func rTopSat(sat bool, fixed, jitter, period, cslow, clast, lo, hi model.Time,
	as, iperiods, icharges []model.Time) (model.Time, bool) {
	s := sat
	w := model.AddSat(fixed,
		model.MulSat(model.OnePlusFloorPosSat(model.AddSat(hi, jitter, &s), period, &s), cslow, &s), &s)
	for x := range as {
		w = model.AddSat(w,
			model.MulSat(model.OnePlusFloorPosSat(model.AddSat(hi, as[x], &s), iperiods[x], &s), icharges[x], &s), &s)
	}
	r := model.SubSat(model.AddSat(w, clast, &s), lo, &s)
	return r, s
}

// ctxErr converts a done context into the taxonomy's ErrCanceled.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return model.Errorf(model.ErrCanceled, "trajectory: analysis canceled: %v", err)
	}
	return nil
}

// testPanicHook, when non-nil, runs at the top of every contained view
// evaluation (engine and reference alike). Tests inject panics through
// it to exercise the recovery paths; it is nil in production.
var testPanicHook func(flow, plen int)

// testNoExtend, when set, makes buildViews rebuild every missing view
// the last mutation changed instead of re-deriving it from the state
// that mutation replaced (extended after an add, shrunk after a
// release, patched after a period renegotiation): the twin that tests
// and guards compare an Analyzer against. It is the one switch between
// the two; which views a mutation keeps does not depend on it. It is
// false in production.
var testNoExtend bool

// internalPanicError converts a recovered panic value into the
// taxonomy's ErrInternal, identifying the view being evaluated.
func internalPanicError(flow, plen int, p any) error {
	return model.Errorf(model.ErrInternal,
		"trajectory: internal panic analyzing flow %d view of length %d: %v", flow, plen, p)
}
