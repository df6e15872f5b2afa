package feasibility

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/netcalc"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// Backend selects which response-time analysis produces the bounds a
// feasibility verdict is judged on. Every backend is sound (bound ≥
// any realizable worst case), so they differ only in tightness and in
// which topologies they are tight on — docs/BACKENDS.md is the field
// guide.
type Backend string

const (
	// BackendTrajectory is the paper's trajectory analysis (Property
	// 2/3) — the default and usually the tightest.
	BackendTrajectory Backend = "trajectory"
	// BackendHolistic is the Tindell/Clark-style per-node jitter
	// propagation baseline.
	BackendHolistic Backend = "holistic"
	// BackendNetcalc is the multiclass-FIFO network-calculus analysis:
	// θ-residual service curves, deconvolution propagation, PBOO.
	BackendNetcalc Backend = "netcalc"
	// BackendCombined runs every other backend and takes the per-flow
	// minimum, recording which backend won in the trace.
	BackendCombined Backend = "combined"
)

// Backends lists the selectable backends in presentation order.
func Backends() []Backend {
	return []Backend{BackendTrajectory, BackendHolistic, BackendNetcalc, BackendCombined}
}

// ParseBackend maps a CLI/API string onto a Backend.
func ParseBackend(s string) (Backend, error) {
	b := Backend(strings.ToLower(strings.TrimSpace(s)))
	for _, known := range Backends() {
		if b == known {
			return b, nil
		}
	}
	return "", model.Errorf(model.ErrInvalidConfig,
		"feasibility: unknown backend %q (have trajectory, holistic, netcalc, combined)", s)
}

// Provenance records, for one flow of a combined analysis, which
// backend produced the reported bound and how the candidates compared.
type Provenance struct {
	// Winner is the backend whose bound was kept.
	Winner Backend
	// Margin is the gap to the best losing candidate (0 on ties,
	// unbounded outcomes, and single-backend runs).
	Margin model.Time
	// Candidates are all per-backend verdicts, in Backends() order.
	Candidates []obs.BackendBound
}

// BackendResult is the outcome of AnalyzeBackend: per-flow bounds and
// jitters in flow-set order, plus per-flow provenance.
type BackendResult struct {
	Backend Backend
	Bounds  []model.Time
	Jitters []model.Time
	// Provenance[i] explains flow i's bound; always populated (a
	// single-backend run has itself as the only candidate).
	Provenance []Provenance
	// Trajectory is the trajectory engine's full result (per-flow
	// details, Explain) when the trajectory backend ran alone; nil for
	// the other backends.
	Trajectory *trajectory.Result
}

// Unbounded reports whether flow i's bound saturated the time domain.
func (r *BackendResult) Unbounded(i int) bool { return model.IsUnbounded(r.Bounds[i]) }

// AnalyzeBackend computes per-flow end-to-end bounds with the selected
// backend. The trajectory options carry the shared knobs (iteration
// caps, non-preemption penalties, tracer); the holistic and netcalc
// backends map the subset that applies to them. Divergence of a single
// backend inside BackendCombined degrades that backend's candidates to
// Unbounded instead of failing the analysis — overload is an outcome;
// only when every backend fails (or a non-overload error occurs) does
// the combined analysis error.
//
// When opt.Tracer is set, one EvFlowBound provenance event is emitted
// per flow — for every backend, not just combined — so a trace always
// says where each bound came from; report.RenderTrace verifies the
// reported bound is the candidate minimum.
func AnalyzeBackend(ctx context.Context, fs *model.FlowSet, b Backend, opt trajectory.Options) (*BackendResult, error) {
	switch b {
	case BackendTrajectory, BackendHolistic, BackendNetcalc:
		res, err := analyzeOne(ctx, fs, b, opt)
		if err != nil {
			return nil, err
		}
		res.Provenance = singleProvenance(b, res.Bounds)
		emitProvenance(fs, opt, res)
		return res, nil
	case BackendCombined:
		return analyzeCombined(ctx, fs, opt)
	default:
		return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: unknown backend %q", string(b))
	}
}

// analyzeOne dispatches a single concrete backend.
func analyzeOne(ctx context.Context, fs *model.FlowSet, b Backend, opt trajectory.Options) (*BackendResult, error) {
	switch b {
	case BackendTrajectory:
		res, err := trajectory.AnalyzeContext(ctx, fs, opt)
		if err != nil {
			return nil, err
		}
		return &BackendResult{Backend: b, Bounds: res.Bounds, Jitters: res.Jitters, Trajectory: res}, nil
	case BackendHolistic:
		res, err := holistic.Analyze(fs, holistic.Options{MaxIterations: opt.MaxIterations})
		if err != nil {
			return nil, err
		}
		return &BackendResult{Backend: b, Bounds: res.Bounds, Jitters: res.Jitters}, nil
	case BackendNetcalc:
		res, err := netcalc.AnalyzeFIFO(fs, netcalc.FIFOOptions{MaxIterations: opt.MaxIterations})
		if err != nil {
			return nil, err
		}
		return &BackendResult{Backend: b, Bounds: res.Bounds, Jitters: jittersFor(fs, res.Bounds)}, nil
	}
	return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: backend %q is not a concrete analysis", string(b))
}

// analyzeCombined runs every concrete backend and keeps the per-flow
// minimum with full provenance. The backends are independent, so up to
// opt.Workers() of them run at once; their outcomes are then merged in
// Backends() order, so bounds, provenance and the error returned do not
// depend on the setting. A panic inside a backend comes back as that
// backend's ErrInternal at any setting.
func analyzeCombined(ctx context.Context, fs *model.FlowSet, opt trajectory.Options) (*BackendResult, error) {
	n := fs.N()
	concrete := []Backend{BackendTrajectory, BackendHolistic, BackendNetcalc}
	// The sub-analyses run with the combined run's tracer silenced:
	// their own events (the trajectory engine's Lemma-2 decompositions
	// in particular) would interleave with — and on the metrics side be
	// overwritten by — the per-flow provenance records this function
	// emits. Callers who want the inner narrative run the single
	// backend directly.
	inner := opt
	inner.Tracer = nil
	results := make([]*BackendResult, len(concrete))
	errs := make([]error, len(concrete))
	// Claims go in Backends() order, so the caller starts on the
	// trajectory analysis, the longest of the three; at Parallelism 1 it
	// runs all three in turn.
	var next atomic.Int32
	claim := func() {
		for k := int(next.Add(1) - 1); k < len(concrete); k = int(next.Add(1) - 1) {
			results[k], errs[k] = analyzeContained(ctx, fs, concrete[k], inner)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(opt.Workers(), len(concrete)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()

	type run struct {
		b   Backend
		res *BackendResult
	}
	var runs []run
	var firstErr error
	for k, b := range concrete {
		if err := errs[k]; err != nil {
			if errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow) {
				// This backend cannot certify any finite bound: it
				// participates as an all-Unbounded candidate.
				runs = append(runs, run{b, &BackendResult{
					Backend: b,
					Bounds:  infinite(n),
					Jitters: infinite(n),
				}})
				continue
			}
			if errors.Is(err, model.ErrCanceled) {
				return nil, err
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("backend %s: %w", b, err)
			}
			continue
		}
		runs = append(runs, run{b, results[k]})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := &BackendResult{
		Backend:    BackendCombined,
		Bounds:     make([]model.Time, n),
		Jitters:    make([]model.Time, n),
		Provenance: make([]Provenance, n),
	}
	for i := 0; i < n; i++ {
		p := Provenance{Candidates: make([]obs.BackendBound, 0, len(runs))}
		best, second := model.TimeInfinity, model.TimeInfinity
		winner := -1
		for ri, r := range runs {
			bound := r.res.Bounds[i]
			p.Candidates = append(p.Candidates, obs.BackendBound{
				Backend:   string(r.b),
				R:         bound,
				Unbounded: model.IsUnbounded(bound),
			})
			if bound < best || winner < 0 {
				second = best
				best, winner = bound, ri
			} else if bound < second {
				second = bound
			}
		}
		p.Winner = runs[winner].b
		if !model.IsUnbounded(best) && !model.IsUnbounded(second) {
			var sat bool
			p.Margin = model.SubSat(second, best, &sat)
		}
		out.Bounds[i] = runs[winner].res.Bounds[i]
		out.Jitters[i] = runs[winner].res.Jitters[i]
		out.Provenance[i] = p
	}
	emitProvenance(fs, opt, out)
	return out, nil
}

// testBackendHook, when non-nil, runs before every backend of a
// combined analysis. Tests inject panics and cancellations through it;
// it is nil in production.
var testBackendHook func(context.Context, Backend)

// analyzeContained is analyzeOne with panic containment, so a broken
// backend fails the combined analysis with ErrInternal instead of
// crashing the goroutine it runs on.
func analyzeContained(ctx context.Context, fs *model.FlowSet, b Backend, opt trajectory.Options) (res *BackendResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, model.Errorf(model.ErrInternal, "feasibility: internal panic: %v", p)
		}
	}()
	if testBackendHook != nil {
		testBackendHook(ctx, b)
	}
	return analyzeOne(ctx, fs, b, opt)
}

// singleProvenance wraps a single backend's bounds as their own
// provenance records.
func singleProvenance(b Backend, bounds []model.Time) []Provenance {
	out := make([]Provenance, len(bounds))
	for i, r := range bounds {
		out[i] = Provenance{
			Winner: b,
			Candidates: []obs.BackendBound{
				{Backend: string(b), R: r, Unbounded: model.IsUnbounded(r)},
			},
		}
	}
	return out
}

// emitProvenance records one EvFlowBound provenance event per flow.
func emitProvenance(fs *model.FlowSet, opt trajectory.Options, res *BackendResult) {
	tr := opt.Tracer
	if tr == nil {
		return
	}
	for i, f := range fs.Flows {
		unbounded := model.IsUnbounded(res.Bounds[i])
		d := &obs.BoundDecomp{
			R:          res.Bounds[i],
			Unbounded:  unbounded,
			Backend:    string(res.Provenance[i].Winner),
			Margin:     res.Provenance[i].Margin,
			Candidates: res.Provenance[i].Candidates,
		}
		tr.Emit(obs.Event{Type: obs.EvFlowBound, Flow: f.Name, Value: res.Bounds[i], Decomp: d})
	}
}

// jittersFor derives Definition-2 end-to-end jitters from bounds:
// Ri − (ΣC + (|Pi|−1)·Lmin).
func jittersFor(fs *model.FlowSet, bounds []model.Time) []model.Time {
	out := make([]model.Time, len(bounds))
	for i, f := range fs.Flows {
		var sat bool
		out[i] = model.SubSat(bounds[i], f.MinTraversal(fs.Net.Lmin), &sat)
	}
	return out
}

// infinite is an all-TimeInfinity vector.
func infinite(n int) []model.Time {
	out := make([]model.Time, n)
	for i := range out {
		out[i] = model.TimeInfinity
	}
	return out
}
