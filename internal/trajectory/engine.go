package trajectory

import (
	"context"
	"errors"
	"slices"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// Analyzer is the incremental analysis engine: it precomputes, once per
// (flow set, options) pair, everything the Property-2 evaluation needs
// that depends only on topology — per-view interference relations with
// their C^{slow_{j,i}}_j charges, the M-term constants folded into each
// A_{i,j} offset, the slow-node choice with its counted-twice residue,
// and the Bslow busy-period fixed point. Each fixed-point sweep then
// recomputes only the Smax-dependent A offsets and the t-scan, and
// dirty propagation skips views whose Smax inputs did not change in the
// previous sweep (their cached bound is provably still exact: a view's
// bound is a pure function of the entries it reads).
//
// Since the slab refactor (DESIGN.md §6) the per-view state lives in
// structure-of-arrays form: every view's interferer arrays are carved
// from a per-Analyzer chunked arena (slab.go), the Smax tables are flat
// slices indexed by precomputed global entry ids, and view construction
// runs on a dense map-free topology mirror. Sweeps and view builds fan
// out only when they hold enough work to pay for a second core
// (fanoutFloor); bit-identity is guaranteed by the Jacobi structure
// itself (evaluations read an immutable table, commits happen
// post-barrier in slot order).
//
// The engine returns bit-identical Results to the straight-line
// reference implementation in reference.go; engine_test.go enforces
// this differentially over fuzzed flow sets and all Options settings.
//
// An Analyzer may be reused: Analyze, AnalyzeFlow and Bounds share the
// converged Smax table and the view caches, so repeated queries against
// the same flow set (admission control, what-if probing) pay the
// topology and fixed-point cost once.
//
// Concurrency contract: an Analyzer is NOT safe for concurrent use.
// Every method — queries (Analyze, Bounds, …), mutations (AddFlow,
// RemoveFlow, UpdateFlow) and WhatIf batches alike — must be invoked
// from one goroutine at a time; callers that serve concurrent clients
// must serialize access externally (internal/serve does this with a
// single-writer loop and publishes results through immutable
// snapshots). The Analyzer parallelizes *internally* per
// Options.Parallelism: fixed-point sweeps fan work out to workers, and
// WhatIf evaluates candidates on concurrent copy-on-write forks — but
// those goroutines never outlive the method call that spawned them.
// Results (bounds slices, FlowSet references) are safe to read from
// other goroutines once the method has returned, provided no mutation
// runs concurrently with the reads; internal/serve relies on the
// flow-set mutations being copy-on-write (a committed *model.FlowSet
// is never modified by later mutations).
type Analyzer struct {
	state
	opt Options

	// pre is prebuildViews' per-flow state while the serial request loop of
	// a fixed point runs (nil otherwise).
	pre []prebuilt

	// arena backs the SoA slices of the views built serially; multi is
	// the serial view builder's working state (buildViews) and fix the
	// fixed-point scratch. A one-shot analysis borrows arena and multi
	// from builderPool (borrowBuilder).
	arena slabArena
	multi multiScratch
	fix   fixScratch

	// kept holds the converged forks of the last WhatIf batch's Keep
	// candidates; the next mutation adopts the matching one and drops
	// the rest.
	kept []*keptFork

	// cow marks a WhatIf fork: shared view caches must be cloned before
	// any in-place patch (the base Analyzer and sibling forks alias them).
	cow bool

	// extendable marks an Analyzer from NewAnalyzer (and its forks): its
	// views keep the build state an extension resumes from (viewCache.sd).
	// The package-level cold analyses never mutate, so they skip it.
	extendable bool

	scratch evalScratch // serial evaluation scratch
}

// state is everything that describes the analysis of one flow set: the
// set itself, its views and entry ids, the dense topology, the Smax fixed
// point with its latches, the cached bounds and the warm seed a mutation
// leaves behind. Derivations, kept WhatIf forks and forks copy it
// whole, and a mutation replaces it whole (commit): whatever the
// successor's literal does not set — the converged table, the error
// latches, the bounds — starts at zero.
type state struct {
	fs *model.FlowSet

	// full[i] is the cached context of flow i's full-path view;
	// prefix[i][k] of the view over Path[:k] (1 ≤ k < len(Path)).
	// buildViews fills all of a flow's missing views at the first
	// request for any of them; a view whose busy period diverges stays
	// nil, so its error surfaces at the slot that asks for it, in the
	// reference path's evaluation order.
	full   []*viewCache
	prefix [][]*viewCache

	// entryBase[i] is the global id base of flow i's Smax entries:
	// entry (i,k) has id entryBase[i]+k. Ids index both the flat Smax
	// backing and the dirty-propagation reverse maps.
	entryBase []int
	nEntries  int

	// topo is the dense topology mirror (slab.go), built lazily and
	// maintained copy-on-write across mutations.
	topo *denseTopo

	// smax is the converged table; smaxFlat is its flat backing in
	// entry-id order (always set together — evaluation gathers A
	// offsets from the flat slice by the views' precomputed entry ids).
	smax      smaxTable
	smaxFlat  []model.Time
	sweeps    int
	converged bool
	smaxDone  bool
	smaxErr   error

	// bounds caches the last successful Bounds of the state (nil until
	// then).
	bounds []model.Time

	// pendingSeed/pendingDirty carry warm-start state left behind by
	// AddFlow/RemoveFlow/UpdateFlow (delta.go): a valid under-seed of the
	// mutated set's Smax fixed point plus the per-flow dirty marks. The
	// next ensureSmax consumes them instead of the no-queue seed. The
	// seed is read-only to the fixed point (it copies the rows into a
	// fresh flat table), so WhatIf forks share it without cloning.
	pendingSeed  smaxTable
	pendingDirty []bool

	// derive is the state an add, a release or a period-only
	// renegotiation replaced: the source of the views it re-derives and
	// an add's undo (nil otherwise).
	derive *derivation
}

// FlowSet returns the analyzer's current flow set. After mutations the
// set differs from the one NewAnalyzer was given; admission controllers
// use this accessor to read the committed state back.
func (a *Analyzer) FlowSet() *model.FlowSet { return a.fs }

// NewAnalyzer prepares an empty engine over fs; the error is always
// nil. All heavy precomputation happens lazily on the first
// Analyze/AnalyzeFlow/Bounds call, in the same order the reference
// implementation would perform it.
func NewAnalyzer(fs *model.FlowSet, opt Options) (*Analyzer, error) {
	a := newAnalyzer(fs, opt)
	a.extendable = true
	return a, nil
}

// newAnalyzer is NewAnalyzer without the error return, for one-shot
// analyses: its views are not extendable.
func newAnalyzer(fs *model.FlowSet, opt Options) *Analyzer {
	base, n := entryBases(fs)
	return &Analyzer{
		state: state{
			fs:        fs,
			full:      make([]*viewCache, fs.N()),
			prefix:    make([][]*viewCache, fs.N()),
			entryBase: base,
			nEntries:  n,
		},
		opt: opt,
	}
}

// entryBases returns every flow's Smax entry id base in fs and the
// total entry count.
func entryBases(fs *model.FlowSet) ([]int, int) {
	base := make([]int, fs.N())
	n := 0
	for i, f := range fs.Flows {
		base[i] = n
		n += len(f.Path)
	}
	return base, n
}

// ensureTopo returns the dense topology mirror, building it on first
// use. Mutations either patch it copy-on-write (delta.go) or nil it for
// a lazy rebuild here.
func (a *Analyzer) ensureTopo() *denseTopo {
	if a.topo == nil {
		a.topo = buildTopo(a.fs)
	}
	return a.topo
}

// Analyze computes the full Result (bounds, jitters, details, arrival
// bounds) for every flow. Repeated calls reuse the converged Smax table
// and the cached views; each call returns a fresh Result the caller may
// mutate.
func (a *Analyzer) Analyze() (*Result, error) {
	return a.AnalyzeContext(context.Background())
}

// AnalyzeContext is Analyze with cancellation: the context is checked
// at the top of every fixed-point sweep and by every sweep worker
// before it claims a job, so cancellation surfaces as ErrCanceled
// within one sweep. A contained panic anywhere in the analysis comes
// back as ErrInternal, never as a crash of the caller.
func (a *Analyzer) AnalyzeContext(ctx context.Context) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, model.Errorf(model.ErrInternal, "trajectory: internal panic in Analyze: %v", p)
		}
	}()
	if tr := a.opt.Tracer; tr != nil {
		tr.Emit(obs.Event{Type: obs.EvAnalysisStart, Flows: a.fs.N(), Mode: a.opt.Smax.String()})
	}
	return a.analyze(ctx)
}

// analyze is AnalyzeContext without the panic containment and the
// EvAnalysisStart event, which analyzeComponents provides once for all
// its component analyzers.
func (a *Analyzer) analyze(ctx context.Context) (*Result, error) {
	tr := a.opt.Tracer
	if err := a.ensureSmax(ctx); err != nil {
		return nil, err
	}
	fs := a.fs
	arrival := make([][]model.Time, fs.N())
	for i := range a.smax {
		arrival[i] = append([]model.Time(nil), a.smax[i]...)
	}
	res := &Result{
		Bounds:        make([]model.Time, fs.N()),
		Jitters:       make([]model.Time, fs.N()),
		Details:       make([]FlowDetail, fs.N()),
		ArrivalBounds: arrival,
		SmaxSweeps:    a.sweeps,
		SmaxConverged: a.converged,
	}
	for i := range fs.Flows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		vc, err := a.fullCache(i)
		if err != nil {
			return nil, err
		}
		r, tStar, err := a.safeEval(vc, a.smaxFlat, &a.scratch)
		if err != nil {
			return nil, err
		}
		res.Bounds[i] = r
		var jsat bool
		res.Jitters[i] = model.SubSat(r, fs.Flows[i].MinTraversal(fs.Net.Lmin), &jsat)
		d := &res.Details[i]
		d.Flow = i
		d.Bound = r
		d.Bslow = vc.bslow
		d.CriticalT = tStar
		d.SlowNode = vc.slow
		d.MaxSum = vc.maxSum
		d.Delta = vc.delta
		// An unbounded verdict has no meaningful critical instant or
		// per-interferer breakdown: the A offsets may themselves be
		// saturated, so the Interference terms are skipped.
		if r < model.TimeInfinity {
			ni := len(vc.jflow)
			if ni > 0 {
				d.Interference = make([]InterferenceTerm, 0, ni)
			}
			for x := 0; x < ni; x++ {
				aOff := a.smaxFlat[vc.iEnt[x]] + a.smaxFlat[vc.jEnt[x]] + vc.aConst[x]
				d.Interference = append(d.Interference, InterferenceTerm{
					Flow:          int(vc.jflow[x]),
					A:             aOff,
					Packets:       model.OnePlusFloorPos(tStar+aOff, vc.iperiods[x]),
					CSlow:         vc.csj[x],
					SameDirection: vc.sameDir[x],
				})
			}
		}
		if tr != nil {
			a.emitFlowBound(tr, i, d)
		}
	}
	return res, nil
}

// AnalyzeFlow returns flow i's bound. The first call pays the Smax
// fixed point; later calls (any flow) evaluate one cached view against
// the converged table — the amortized entry point for admission
// control.
func (a *Analyzer) AnalyzeFlow(i int) (model.Time, error) {
	return a.AnalyzeFlowContext(context.Background(), i)
}

// AnalyzeFlowContext is AnalyzeFlow with cancellation and panic
// containment (see AnalyzeContext).
func (a *Analyzer) AnalyzeFlowContext(ctx context.Context, i int) (r model.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = 0, model.Errorf(model.ErrInternal, "trajectory: internal panic in AnalyzeFlow: %v", p)
		}
	}()
	if i < 0 || i >= a.fs.N() {
		return 0, model.Errorf(model.ErrInvalidConfig, "trajectory: flow index %d out of range [0,%d)", i, a.fs.N())
	}
	if err := a.ensureSmax(ctx); err != nil {
		return 0, err
	}
	vc, err := a.fullCache(i)
	if err != nil {
		return 0, err
	}
	r, _, err = a.safeEval(vc, a.smaxFlat, &a.scratch)
	return r, err
}

// Bounds returns every flow's bound without materializing Details —
// the cheap path for feasibility checks. The bounds are cached until
// the next mutation, so a repeated call (or the call after an adopted
// WhatIf fork) only copies them.
func (a *Analyzer) Bounds() ([]model.Time, error) {
	return a.BoundsContext(context.Background())
}

// BoundsContext is Bounds with cancellation and panic containment (see
// AnalyzeContext).
func (a *Analyzer) BoundsContext(ctx context.Context) (out []model.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, model.Errorf(model.ErrInternal, "trajectory: internal panic in Bounds: %v", p)
		}
	}()
	if a.bounds != nil {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return slices.Clone(a.bounds), nil
	}
	if err := a.ensureSmax(ctx); err != nil {
		return nil, err
	}
	out = make([]model.Time, a.fs.N())
	for i := range a.fs.Flows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		vc, err := a.fullCache(i)
		if err != nil {
			return nil, err
		}
		out[i], _, err = a.safeEval(vc, a.smaxFlat, &a.scratch)
		if err != nil {
			return nil, err
		}
	}
	a.bounds = slices.Clone(out)
	if a.derive != nil && a.derive.added < 0 {
		a.derive = nil // every view is built; an add's stays its undo
	}
	return out, nil
}

// ensureSmax runs the prefix fixed point once and caches the converged
// table (or the error, an unknown Smax mode included) for all later
// queries — EXCEPT a cancellation: ErrCanceled reflects the caller's
// context, not the flow set, so it is returned without being latched
// and a later call with a live context recomputes from scratch.
//
// When a mutation left warm-start state behind (pendingSeed), the
// prefix fixed point is first attempted from that seed with only the
// mutated flows dirty. A warm run that converges is the exact fixed
// point (the seed sandwiches between the no-queue floor and the fixed
// point, and the max-update iteration has a unique least prefixpoint
// above any valid seed). A warm run that errors or hits the iteration
// cap falls back to a full cold run so that error strings and
// non-converged tables stay bit-identical to a fresh NewAnalyzer.
func (a *Analyzer) ensureSmax(ctx context.Context) error {
	if a.smaxDone {
		return a.smaxErr
	}
	if a.opt.Smax != SmaxPrefixFixpoint {
		a.smaxDone = true
		a.smaxErr = model.Errorf(model.ErrInvalidConfig, "trajectory: unknown Smax mode %d", a.opt.Smax)
		return a.smaxErr
	}
	tr := a.opt.Tracer
	mode := a.opt.Smax.String()
	var err error
	if a.pendingSeed != nil {
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvSmaxSeed, Op: "warm",
				Dirty: countDirty(a.pendingDirty, a.fs.N())})
		}
		a.smax, a.smaxFlat, a.sweeps, a.converged, err = a.enginePrefixFixpoint(ctx, a.pendingSeed, a.pendingDirty)
		if errors.Is(err, model.ErrCanceled) {
			// The partially advanced seed is still a valid under-seed
			// (values only grow toward the fixed point), but the dirty
			// bookkeeping of the aborted run is lost — widen to
			// all-dirty for the retry.
			if tr != nil {
				tr.Emit(obs.Event{Type: obs.EvSmaxDone, Mode: mode, Op: "warm",
					Sweep: a.sweeps, Outcome: "canceled"})
			}
			a.pendingDirty = nil
			a.smax, a.smaxFlat = nil, nil
			return err
		}
		if err == nil && a.converged {
			if tr != nil {
				tr.Emit(obs.Event{Type: obs.EvSmaxDone, Mode: mode, Op: "warm",
					Sweep: a.sweeps, Outcome: "converged"})
			}
			a.pendingSeed, a.pendingDirty = nil, nil
			a.smaxDone, a.smaxErr = true, nil
			return nil
		}
		// Warm failure (divergence/overflow discovered in a different
		// sweep order, or iteration cap): rerun cold for bit-identical
		// errors and tables.
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvSmaxDone, Mode: mode, Op: "warm",
				Sweep: a.sweeps, Outcome: "fallback"})
		}
		a.pendingSeed, a.pendingDirty = nil, nil
	}
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvSmaxSeed, Op: "cold", Dirty: a.fs.N()})
	}
	a.smax, a.smaxFlat, a.sweeps, a.converged, err = a.enginePrefixFixpoint(ctx, nil, nil)
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvSmaxDone, Mode: mode, Op: "cold",
			Sweep: a.sweeps, Outcome: smaxOutcome(err, a.converged)})
	}
	if errors.Is(err, model.ErrCanceled) {
		a.smax, a.smaxFlat = nil, nil
		return err
	}
	a.smaxDone = true
	a.smaxErr = err
	return err
}

// safeEval evaluates a cached view with panic containment: a panic in
// the scan (a broken internal invariant) comes back as ErrInternal
// identifying the view, instead of unwinding into the caller.
func (a *Analyzer) safeEval(vc *viewCache, flat []model.Time, sc *evalScratch) (r, tStar model.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, tStar, err = 0, 0, internalPanicError(vc.flow, vc.plen, p)
		}
	}()
	if testPanicHook != nil {
		testPanicHook(vc.flow, vc.plen)
	}
	r, tStar = vc.eval(flat, sc)
	return r, tStar, nil
}

// fullCache returns (building on first use) the cached context of flow
// i's full-path view.
func (a *Analyzer) fullCache(i int) (*viewCache, error) {
	if a.pre != nil {
		a.claimPrebuilt(i)
	}
	if vc := a.full[i]; vc != nil {
		return vc, nil
	}
	return a.buildViews(i, len(a.fs.Flows[i].Path), &a.multi, &a.arena, a.opt.Tracer)
}

// prefixCache returns (building on first use) the cached context of the
// view over flow i's path prefix of length k.
func (a *Analyzer) prefixCache(i, k int) (*viewCache, error) {
	if a.pre != nil {
		a.claimPrebuilt(i)
	}
	if row := a.prefix[i]; row != nil && row[k] != nil {
		return row[k], nil
	}
	return a.buildViews(i, k, &a.multi, &a.arena, a.opt.Tracer)
}

// viewCache is the precomputed, Smax-independent context of one path
// view in structure-of-arrays form: everything newBoundCtx derives
// except the A offsets. The per-interferer state lives in parallel
// arrays carved from the Analyzer's arena (index x is one intersecting
// flow, in ascending flow order):
//
//	jflow[x]  — the interfering flow's index
//	iEnt[x]   — global Smax entry id of (flow, first_{j,i} on Pi)
//	jEnt[x]   — global Smax entry id of (j, first_{i,j} on Pj)
//	aConst[x] — Jj − Smin^{first_{j,i}}_j − M^{first_{i,j}}_i
//	csj[x]    — C^{slow_{j,i}}_j (also the rTopSat charge vector)
//	iperiods[x] — Tj
//	sameDir[x]  — whether first_{j,i} == first_{i,j}
//
// The Smax-dependent A offset reconstitutes per sweep as
// flat[iEnt[x]] + flat[jEnt[x]] + aConst[x] (Lemma 2), a pure gather
// from the flat table — no per-interferer struct or map lookup on the
// sweep hot path.
type viewCache struct {
	flow int
	plen int

	jflow    []int32
	iEnt     []int32
	jEnt     []int32
	aConst   []model.Time
	csj      []model.Time
	iperiods []model.Time
	sameDir  []bool
	// readIDs are the global Smax entry ids this view's A offsets read,
	// deduplicated in first-occurrence order — the dirty-propagation
	// dependency set.
	readIDs []int32

	bslow  model.Time
	slow   model.NodeID
	cslow  model.Time
	maxSum model.Time
	fixed  model.Time
	clast  model.Time
	period model.Time
	jitter model.Time
	delta  model.Time
	// minPer/maxCharge majorize the scan's packet-count terms (minimum
	// period and maximum charge over the view itself and every
	// interferer) — constants of eval's quick saturation check.
	minPer    model.Time
	maxCharge model.Time
	// sat is the sticky saturation flag of the build-time constants; the
	// flag expressions mirror boundCtx's exactly (see harden.go). eval
	// seeds its per-sweep flag from it. sweepSat is the flag as the
	// interferer sweep left it, before finishView: the state an
	// extension of the view resumes from (buildViews).
	sat      bool
	sweepSat bool
	// sd holds the sweep's final same-direction cost extrema, minSD then
	// maxSD (buildScratch), on the views of an extendable Analyzer.
	sd []model.Time
}

// finishView runs the interferer-independent tail of a view build
// against the view's columns and build state: the busy period and the
// quick-guard majorants (busyPeriod), the slow-node selection and the
// fixed W term.
func (a *Analyzer) finishView(vc *viewCache, opt Options, path model.Path, cost []model.Time, sc *buildScratch) error {
	if err := a.busyPeriod(vc, opt); err != nil {
		return err
	}
	a.finishSlow(vc, path, cost, sc)
	vc.fixed = model.AddSat(
		model.AddSat(
			model.SubSat(vc.maxSum, vc.clast, &vc.sat),
			model.MulSat(model.Time(vc.plen-1), a.fs.Net.Lmax, &vc.sat), &vc.sat),
		vc.delta, &vc.sat)
	return nil
}

// busyPeriod sets the view's C^{slow}_i, its quick-guard majorants and
// its busy period from its columns, in one pass that also folds the
// busy period's first iterate b0 = C^{slow}_i + Σ_x csj[x]. When
// b0 ≤ minPer, every ⌈b0/T⌉ of the equation is 1, so b0 is the least
// fixed point, where the iteration would stop at once: the view takes
// it, with that iteration's event. A saturated b0 lies on the rail,
// above every valid period, so it never takes this case. Otherwise the
// reference's bslowFixpoint solves the equation over the same columns.
func (a *Analyzer) busyPeriod(vc *viewCache, opt Options) error {
	fs := a.fs
	vc.cslow = vc.maxCost(fs)
	// minPer/maxCharge majorize every packet-count term of the scan —
	// the constants of eval's quick saturation check.
	vc.minPer, vc.maxCharge = vc.period, vc.cslow
	b0, bsat := vc.cslow, false
	for x := range vc.iperiods {
		if vc.iperiods[x] < vc.minPer {
			vc.minPer = vc.iperiods[x]
		}
		if vc.csj[x] > vc.maxCharge {
			vc.maxCharge = vc.csj[x]
		}
		b0 = model.AddSat(b0, vc.csj[x], &bsat)
	}
	if b0 <= vc.minPer {
		vc.bslow = b0
		if tr := opt.Tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvBslow, Flow: fs.Flows[vc.flow].Name, Iters: 1, Value: b0})
		}
		return nil
	}
	b, err := bslowFixpoint(fs, vc.flow, vc.plen, opt, vc.period, vc.cslow, vc.iperiods, vc.csj)
	vc.bslow = b
	return err
}

// maxCost returns the view's maximal per-node cost (C^{slow_i}_i).
func (vc *viewCache) maxCost(fs *model.FlowSet) model.Time {
	cost := fs.Flows[vc.flow].Cost[:vc.plen]
	bc := cost[0]
	for k := 1; k < vc.plen; k++ {
		if cost[k] > bc {
			bc = cost[k]
		}
	}
	return bc
}

// buildViews builds every missing view of flow i — all prefix lengths
// and the full path — in ONE interferer sweep, and returns the view of
// length want (want == len(Path) is the full view) or that view's own
// busy-period error. Each view is a term-by-term mirror of newBoundCtx:
// the per-pair anchors (first-crossing positions, running charge
// maxima, jitter-minus-Smin offsets) are derived once per pair, and
// every view's build state advances in ascending-j order, so each
// view's sequence of mTermAt/absorb/read calls — hence its columns,
// sticky flags and, through finishView, its busy period and error — is
// that of building it alone. The M-term and slow-node scans are
// incremental (buildScratch): O(plen) per same-direction interferer
// where the reference rescans in O(plen·ni).
//
// Building a flow's views together moves its bslow.fixpoint events to
// the first request for any of them, in ascending view length. A view
// whose busy period fails stays nil: the next request for it rebuilds
// it and returns the identical error, at the slot the reference
// evaluation order reaches first.
//
// When the state a mutation replaced (a.derive) still holds every
// missing view (deriveRow), each is re-derived from it instead of
// rebuilt. After an add the sweep resumes from the predecessor's view
// (resumeView): the added flow carries the highest index, so the
// ascending-j sweep meets it last, the predecessor's interferer entries
// are exact entries of the new view, and passes 1 and 2 visit only the
// added flow. After a period-only renegotiation the view resumes from
// the predecessor's with the one period patched, and after a release it
// is shrunk (deriveView); the interferer list is known, so passes 1 and
// 2 are skipped. Either way the view's columns and build state are
// those a rebuild's sweep would leave, and finishView runs as on a
// rebuild.
//
// After a release or a renegotiation, a view that does not hold the
// changed flow is carried over as a copy (carryView): no busy period
// re-runs and no event fires for it. An add changes every view of a
// row it dropped. testNoExtend rebuilds the changed views and still
// carries the others over.
//
// The build state is the caller's: ms and ar are the working state and
// the arena the views are carved from, and tr receives the busy-period
// events. The serial path passes the Analyzer's own; prebuildViews
// passes one set per worker, and builds of different flows touch
// disjoint Analyzer state (flow i's full and prefix slots, and its row
// of a.derive), so they may run concurrently once the topology mirror
// exists.
func (a *Analyzer) buildViews(i, want int, ms *multiScratch, ar *slabArena, tr obs.Tracer) (*viewCache, error) {
	fs := a.fs
	f := fs.Flows[i]
	L := len(f.Path)
	if a.prefix[i] == nil {
		a.prefix[i] = make([]*viewCache, L)
	}
	tp := a.ensureTopo()
	opt := a.opt
	opt.Tracer = tr
	n := fs.N()
	posI := tp.pos[i]
	dpi := tp.dpath[i]
	// The source of the missing views, if the predecessor holds all of
	// them: row src of d, whose views the mutation did not change carry
	// over while the others are re-derived. testNoExtend rebuilds the
	// views that would be re-derived.
	d := a.derive
	src := a.deriveRow(i, L)
	j0 := 0 // the first interferer the sweep visits
	switch {
	case src < 0 || testNoExtend:
	case d.added >= 0:
		j0 = d.added
	default:
		j0 = n
	}

	// Pass 1: each interferer's activation index, histogrammed so every
	// view's interferer count is a prefix sum.
	ms.minKi = growN(ms.minKi, n)
	ms.hist = growN(ms.hist, L)
	clear(ms.hist)
	for j := j0; j < n; j++ {
		if j == i {
			ms.minKi[j] = -1
			continue
		}
		mk := int32(-1)
		for _, d := range tp.dpath[j] {
			if ki := posI[d]; ki >= 0 && (mk < 0 || ki < mk) {
				mk = ki
			}
		}
		ms.minKi[j] = mk
		if mk >= 0 {
			ms.hist[mk]++
		}
	}

	// Carry the unchanged views over, carve the others at exact size and
	// open their build states; top is the longest view carved.
	ms.vcs = growN(ms.vcs, L)
	ms.xs = growN(ms.xs, L)
	ms.st = growN(ms.st, L)
	ms.words = (L + 63) / 64
	ms.seen = growN(ms.seen, L*ms.words)
	clear(ms.seen)
	ms.idxAt = growN(ms.idxAt, L)
	ms.maxAt = growN(ms.maxAt, L)
	ms.crow = growN(ms.crow, L)
	baseI := int32(a.entryBase[i])
	top, cum := 0, 0
	for p := 1; p <= L; p++ {
		cum += int(ms.hist[p-1])
		ms.vcs[p-1] = nil
		if viewAt(a.full, a.prefix, i, p, L) != nil {
			continue
		}
		var bv *viewCache
		if src >= 0 {
			bv = viewAt(d.full, d.prefix, src, p, L)
			if !d.changes(i, bv) {
				a.carryView(bv, ar, L)
				continue
			}
		}
		if testNoExtend {
			bv = nil
		}
		top = p
		ni := cum
		if bv != nil {
			ni += len(bv.jflow)
			if d.removed >= 0 {
				ni-- // the released flow's entry
			}
		}
		vc := ar.newView()
		vc.flow = i
		vc.plen = p
		vc.period = f.Period
		vc.jitter = f.Jitter
		vc.clast = f.Cost[p-1]
		vc.delta = f.BlockingOver(p, &vc.sat)
		vc.jflow = arenaSlice(&ar.ints, ni)
		vc.iEnt = arenaSlice(&ar.ints, ni)
		vc.jEnt = arenaSlice(&ar.ints, ni)
		vc.aConst = arenaSlice(&ar.times, ni)
		vc.csj = arenaSlice(&ar.times, ni)
		vc.iperiods = arenaSlice(&ar.times, ni)
		vc.sameDir = arenaSlice(&ar.bools, ni)
		ms.vcs[p-1] = vc
		ms.xs[p-1] = 0
		ms.st[p-1].reset(p, f.Cost[:p])
		switch {
		case bv == nil:
		case d.removed >= 0:
			a.deriveView(ms, vc, bv, &ms.st[p-1], tp)
		default:
			a.resumeView(ms, vc, bv, &ms.st[p-1], baseI)
		}
	}
	if src >= 0 && d.added < 0 {
		// The predecessor's views of flow i are consumed: they become
		// garbage now, not when the derivation does. An add's
		// predecessor is its undo and keeps them.
		d.full[src], d.prefix[src] = nil, nil
	}

	// Pass 2: one bucket computation per pair, then an ascending-plen
	// combine that maintains the prefix anchors incrementally and fills
	// each missing view's next SoA slot.
	lmin := fs.Net.Lmin
	for j := j0; j < n; j++ {
		mk := ms.minKi[j]
		if mk < 0 || int(mk) >= top {
			continue
		}
		fj := fs.Flows[j]
		costJ := fj.Cost
		idxAt, maxAt, crow := ms.idxAt[:L], ms.maxAt[:L], ms.crow[:L]
		for m := 0; m < L; m++ {
			idxAt[m], maxAt[m], crow[m] = -1, 0, 0
		}
		for k, d := range tp.dpath[j] {
			ki := posI[d]
			if ki < 0 {
				continue
			}
			if idxAt[ki] < 0 {
				idxAt[ki] = int32(k) // first occurrence in j order
			}
			if c := costJ[k]; c > maxAt[ki] {
				maxAt[ki] = c
			}
			crow[ki] = costJ[k] // last occurrence wins: C_j at Pi[ki]
		}
		// first_{i,j}: the first node of Pi (in i order) on Pj. It is
		// the same for every view the pair meets in: whenever a shared
		// node lies inside the prefix, the first one does too.
		posJ := tp.pos[j]
		var p0, fij int32 = -1, -1
		for m, d := range dpi {
			if posJ[d] >= 0 {
				p0, fij = int32(m), posJ[d]
				break
			}
		}
		dP0 := dpi[p0]
		jEntJ := int32(a.entryBase[j]) + fij
		per := fj.Period
		// Prefix combine: bucket p−1 activates at plen=p. jord is the
		// minimum j-order among active buckets (first_{j,i} on Pj), fji
		// its position on Pi, cs the running maximum charge
		// C^{slow_{j,i}}_j and jms = Jj − Smin_j(first_{j,i}), with its
		// rail flag.
		jord, fji := int32(-1), int32(-1)
		var cs, jms model.Time
		sd, jmsF := false, false
		for p := int(mk) + 1; p <= top; p++ {
			if k := idxAt[p-1]; k >= 0 {
				if jord < 0 || k < jord {
					jord, fji = k, int32(p-1)
					sd = tp.dpath[j][k] == dP0
					jmsF = false
					jms = model.SubSat(fj.Jitter, fs.SminAt(j, int(k)), &jmsF)
				}
				if maxAt[p-1] > cs {
					cs = maxAt[p-1]
				}
			}
			vc := ms.vcs[p-1]
			if vc == nil {
				continue
			}
			st := &ms.st[p-1]
			// M ranges over the same-direction interferers collected
			// BEFORE j, so the query precedes the absorb below. OR-ing
			// jms's rail flag into the sticky vc.sat equals computing
			// that SubSat against vc.sat directly.
			m := st.mTermAt(lmin, int(p0), &vc.sat)
			if jmsF {
				vc.sat = true
			}
			iEnt := baseI + fji
			x := ms.xs[p-1]
			vc.jflow[x] = int32(j)
			vc.iEnt[x] = iEnt
			vc.jEnt[x] = jEntJ
			vc.aConst[x] = model.SubSat(jms, m, &vc.sat)
			vc.csj[x] = cs
			vc.iperiods[x] = per
			vc.sameDir[x] = sd
			ms.xs[p-1] = x + 1
			ms.addReads(st, p, fji, iEnt, jEntJ)
			if sd {
				st.absorbSameDir(crow, p)
			}
		}
	}

	var err error
	for p := 1; p <= top; p++ {
		vc := ms.vcs[p-1]
		if vc == nil {
			continue
		}
		ms.vcs[p-1] = nil
		st := &ms.st[p-1]
		vc.readIDs = arenaSlice(&ar.ints, len(st.reads))
		copy(vc.readIDs, st.reads)
		vc.sweepSat = vc.sat
		if a.extendable {
			vc.sd = arenaSlice(&ar.times, 2*p)
			copy(vc.sd, st.minSD)
			copy(vc.sd[p:], st.maxSD)
		}
		if ferr := a.finishView(vc, opt, f.Path[:p], f.Cost[:p], st); ferr != nil {
			if p == want {
				err = ferr
			}
			continue
		}
		if p == L {
			a.full[i] = vc
		} else {
			a.prefix[i][p] = vc
		}
	}
	if err != nil {
		return nil, err
	}
	return viewAt(a.full, a.prefix, i, want, L), nil
}

// resumeView starts vc's build from bv, the same view in the state an
// add or a period-only renegotiation replaced. bv's interferer entries
// become vc's first entries, with the renegotiated flow's period
// patched, and the build state takes the values the sweep held after
// visiting them: the same-direction extrema, the read set with its
// dedup bits, and the pre-finish saturation flag. After an add the
// sweep then appends the added flow's entry.
func (a *Analyzer) resumeView(ms *multiScratch, vc, bv *viewCache, st *buildScratch, baseI int32) {
	copy(vc.jflow, bv.jflow)
	copy(vc.iEnt, bv.iEnt)
	copy(vc.jEnt, bv.jEnt)
	copy(vc.aConst, bv.aConst)
	copy(vc.csj, bv.csj)
	copy(vc.iperiods, bv.iperiods)
	copy(vc.sameDir, bv.sameDir)
	if u := a.derive.updated; u >= 0 {
		if x, ok := slices.BinarySearch(bv.jflow, int32(u)); ok {
			vc.iperiods[x] = a.fs.Flows[u].Period
		}
	}
	vc.sat = bv.sweepSat
	p := vc.plen
	copy(st.minSD, bv.sd[:p])
	copy(st.maxSD, bv.sd[p:])
	st.reads = append(st.reads, bv.readIDs...)
	L := int32(len(ms.vcs)) // the flow's path length
	for _, e := range bv.readIDs {
		if fji := e - baseI; fji >= 0 && fji < L {
			ms.seen[int(fji)*ms.words+(p-1)/64] |= 1 << uint((p-1)%64)
		}
	}
	ms.xs[p-1] = int32(len(bv.jflow))
}

// deriveRow returns flow i's row in the state a mutation replaced
// (Analyzer.derive) when that row holds every view of flow i (path
// length L) the current state misses, or -1 — also when the Analyzer is
// not extendable. After a release or a renegotiation, a changed view
// that is saturated rebuilds: its sticky flags may hide which operation
// set them. An extension resumes from the flag as the sweep left it.
func (a *Analyzer) deriveRow(i, L int) int {
	d := a.derive
	if d == nil || !a.extendable {
		return -1
	}
	o := rowOf(i, d.removed, d.fs.N())
	if o < 0 {
		return -1 // the added flow
	}
	for p := 1; p <= L; p++ {
		if viewAt(a.full, a.prefix, i, p, L) != nil {
			continue
		}
		ov := viewAt(d.full, d.prefix, o, p, L)
		if ov == nil || (d.added < 0 && d.changes(i, ov) && (ov.sat || ov.sweepSat)) {
			return -1
		}
	}
	return o
}

// carryView makes a copy of bv, a view of the predecessor that a
// release or renegotiation left unchanged, the current view of its flow
// (path length L), re-indexed after a release. The copy is carved from
// ar, so a row's views stay together and the predecessor's chunks are
// not kept alive by the few views a row carries.
func (a *Analyzer) carryView(bv *viewCache, ar *slabArena, L int) {
	vc := ar.newView()
	*vc = *bv
	vc.jflow = arenaClone(&ar.ints, bv.jflow)
	vc.iEnt = arenaClone(&ar.ints, bv.iEnt)
	vc.jEnt = arenaClone(&ar.ints, bv.jEnt)
	vc.aConst = arenaClone(&ar.times, bv.aConst)
	vc.csj = arenaClone(&ar.times, bv.csj)
	vc.iperiods = arenaClone(&ar.times, bv.iperiods)
	vc.sameDir = arenaClone(&ar.bools, bv.sameDir)
	vc.readIDs = arenaClone(&ar.ints, bv.readIDs)
	vc.sd = arenaClone(&ar.times, bv.sd)
	if d := a.derive; d.removed >= 0 {
		remapIDs(vc, d.removed, d.entryBase, a.entryBase)
	}
	if vc.plen == L {
		a.full[vc.flow] = vc
	} else {
		a.prefix[vc.flow][vc.plen] = vc
	}
}

// deriveView fills vc, flow i's length-p view, and its build state st
// from ov, the same view in the state the release of flow r replaced
// (a.derive), leaving both as a rebuild's sweep would: the columns, the
// read set, the same-direction extrema and the saturation flag. ov is
// unsaturated (deriveRow), so every operation of its build ran
// unflagged and exact.
//
// ov holds r, and vc is ov without r's entry. Entries keep their columns, translated to the new flow
// indexes and entry ids, except for one dependency: Lemma 2's M ranges
// over the same-direction interferers before each entry, so when r was
// same-direction, every later entry's A constant (and the extrema the
// slow node reads) moved. Those entries re-run the build's M query and
// subtraction against extrema replayed through absorbSameDir without
// r — the operand sequence of a rebuild, flags included.
func (a *Analyzer) deriveView(ms *multiScratch, vc, ov *viewCache, st *buildScratch, tp *denseTopo) {
	d := a.derive
	p, i := vc.plen, vc.flow
	fs, r := a.fs, d.removed
	xr, _ := slices.BinarySearch(ov.jflow, int32(r))
	rsd := ov.sameDir[xr]
	oldBaseI := int32(d.entryBase[rowOf(i, r, d.fs.N())])
	baseI := int32(a.entryBase[i])
	posI, dpi := tp.pos[i], tp.dpath[i]
	x := 0
	for y, jo := range ov.jflow {
		if y == xr {
			continue
		}
		j := jo
		if int(jo) > r {
			j--
		}
		fji := ov.iEnt[y] - oldBaseI
		fij := ov.jEnt[y] - int32(d.entryBase[jo])
		iEnt, jEnt := baseI+fji, int32(a.entryBase[j])+fij
		aConst := ov.aConst[y]
		if rsd && y > xr {
			// first_{i,j} lies at fij on Pj and first_{j,i} at fji on Pi.
			m := st.mTermAt(fs.Net.Lmin, int(posI[tp.dpath[j][fij]]), &vc.sat)
			var jmsF bool
			jms := model.SubSat(fs.Flows[j].Jitter, fs.SminAt(int(j), int(tp.pos[j][dpi[fji]])), &jmsF)
			if jmsF {
				vc.sat = true
			}
			aConst = model.SubSat(jms, m, &vc.sat)
		}
		vc.jflow[x] = j
		vc.iEnt[x] = iEnt
		vc.jEnt[x] = jEnt
		vc.aConst[x] = aConst
		vc.csj[x] = ov.csj[y]
		vc.iperiods[x] = ov.iperiods[y]
		vc.sameDir[x] = ov.sameDir[y]
		x++
		ms.addReads(st, p, fji, iEnt, jEnt)
		if rsd && ov.sameDir[y] {
			crow, posJ, costJ := ms.crow[:p], tp.pos[j], fs.Flows[j].Cost
			for m, dn := range dpi[:p] {
				crow[m] = 0
				if k := posJ[dn]; k >= 0 {
					crow[m] = costJ[k]
				}
			}
			st.absorbSameDir(crow, p)
		}
	}
	if !rsd {
		copy(st.minSD, ov.sd[:p])
		copy(st.maxSD, ov.sd[p:])
	}
	ms.xs[p-1] = int32(x)
}

// viewAt returns the length-p view of flow i (path length L) in a
// state's view arrays, or nil when it is not built.
func viewAt(full []*viewCache, prefix [][]*viewCache, i, p, L int) *viewCache {
	if p == L {
		return full[i]
	}
	if prefix[i] == nil {
		return nil
	}
	return prefix[i][p]
}

// finishSlow mirrors boundCtx.chooseSlow over the build scratch's
// per-node same-direction maxima (already folded incrementally by the
// interferer loop): the total fold and the first-maximum tie-break use
// the identical values and AddSat order as the reference's per-node
// rescan. It reads vc.cslow, which busyPeriod set.
func (a *Analyzer) finishSlow(vc *viewCache, path model.Path, cost []model.Time, sc *buildScratch) {
	var total model.Time
	for k := range path {
		total = model.AddSat(total, sc.maxSD[k], &vc.sat)
	}
	bestK := -1
	for k := range path {
		if cost[k] != vc.cslow {
			continue
		}
		if bestK < 0 || sc.maxSD[k] > sc.maxSD[bestK] {
			bestK = k
		}
	}
	vc.slow = path[bestK]
	vc.maxSum = model.SubSat(total, sc.maxSD[bestK], &vc.sat)
}

// evalScratch holds the per-evaluation buffers: the reconstituted A
// offsets and the k-way-merge stream state of the t-scan. Reused across
// evaluations so the steady-state scan allocates nothing.
type evalScratch struct {
	as      []model.Time // A offset per interferer
	heads   []model.Time // next jump instant per stream
	periods []model.Time
	costs   []model.Time
	ucount  []model.Time // unclamped packet count the next jump reaches
}

func growTimes(s []model.Time, n int) []model.Time {
	if cap(s) < n {
		return make([]model.Time, n)
	}
	return s[:n]
}

// eval computes the view's bound and critical instant against the flat
// Smax table: Property 2's maximization over the critical instants,
// evaluated incrementally. Instead of materializing and sorting the
// jump points of every floor term (the reference criticalInstants), the
// scan k-way-merges one ascending jump stream per term and maintains W
// incrementally — each jump raises exactly one term's packet count by
// one (when its unclamped count is positive), so W updates in O(1) per
// jump and the whole scan is allocation-free.
//
// Two cutoffs prune the scan without changing its result (DESIGN.md §6):
//
//   - Streams whose first jump falls at or beyond the Lemma-3 busy-window
//     end hi = −Ji+Bslow never fire inside the scan window, so they are
//     dropped at init (they still contribute to W(lo)).
//   - rem tracks the total W mass the remaining jumps can still add
//     (Σ over future contributing jumps of their cost). After visiting
//     instant t with value r, every later instant t' ≥ t+1 satisfies
//     r(t') = W(t') + C^last − t' ≤ r + rem − 1, so once
//     rem ≤ bestR − r + 1 no later instant can strictly exceed bestR
//     and the scan stops. The first-maximizer tie-break is preserved
//     because instants that merely TIE bestR never update it.
//
// The visited instants, the W values, and the tie-break are otherwise
// identical to the reference, so the result is bit-identical.
func (vc *viewCache) eval(flat []model.Time, sc *evalScratch) (model.Time, model.Time) {
	ni := len(vc.jflow)
	as := growTimes(sc.as, ni)
	sc.as = as
	// The A reconstitution mirrors boundCtx.offsetA's AddSat chain with
	// plain arithmetic: |flat entries| ≤ TimeInfinity and |aConst| ≤
	// TimeInfinity, so both partial sums are exact in int64, and the
	// explicit rail compares reproduce the chain's sticky flag exactly
	// (flat values are ≥ 0, so the first add rails iff s1 ≥ Infinity; a
	// railed aConst already set vc.sat at build time). When the flag
	// fires the A values never reach a verdict — rTopSat below is seeded
	// with the flag and degrades to Unbounded — so the value divergence
	// of clamped intermediates is unobservable. The rTopSat guard also
	// proves every count·cost product and their sum — hence rem below —
	// stays inside the exact int64 range.
	sat := vc.sat
	maxOff := vc.jitter
	iEnt, jEnt, aConst := vc.iEnt, vc.jEnt, vc.aConst
	for x := 0; x < ni; x++ {
		s1 := flat[iEnt[x]] + flat[jEnt[x]]
		v := s1 + aConst[x]
		if s1 >= model.TimeInfinity || v >= model.TimeInfinity || v <= -model.TimeInfinity {
			sat = true
		}
		as[x] = v
		if v > maxOff {
			maxOff = v
		}
	}

	lo := -vc.jitter
	hi := lo + vc.bslow
	// Quick saturation check: every count term of the scan envelope is
	// majorized by OnePlusFloorPosSat(hi+maxOff, minPer) — counts are
	// monotone in the window and (at non-negative windows) anti-monotone
	// in the period, and negative windows count zero — so the envelope
	// itself is ≤ fixed + (ni+1)·cnt·maxCharge + clast − lo. When that
	// majorant's fold never saturates, neither does any operation of the
	// precise rTopSat fold: each AddSat(hi, as[x]) lies between hi and
	// hi+maxOff (Lemma 2's offsets are non-negative: the Smax terms, at
	// least the queueing-free floor, dominate Smin and M), each count is
	// ≤ cnt, each product ≤ cnt·maxCharge and each partial sum lies in
	// [fixed, quick]. Only when the quick check flags does eval pay the
	// precise per-term guard — whose verdict is what decides, keeping
	// the Unbounded boundary bit-identical.
	qs := sat
	top := model.AddSat(hi, maxOff, &qs)
	cnt := model.OnePlusFloorPosSat(top, vc.minPer, &qs)
	model.SubSat(model.AddSat(model.AddSat(vc.fixed,
		model.MulSat(model.MulSat(model.Time(ni)+1, cnt, &qs), vc.maxCharge, &qs), &qs), vc.clast, &qs), lo, &qs)
	if qs {
		if _, saturated := rTopSat(sat, vc.fixed, vc.jitter, vc.period, vc.cslow, vc.clast,
			lo, hi, as, vc.iperiods, vc.csj); saturated {
			return model.TimeInfinity, 0
		}
	}

	heads := growTimes(sc.heads, ni+1)
	periods := growTimes(sc.periods, ni+1)
	costs := growTimes(sc.costs, ni+1)
	ucount := growTimes(sc.ucount, ni+1)
	sc.heads, sc.periods, sc.costs, sc.ucount = heads, periods, costs, ucount

	// One pass per term folds its W(lo) contribution AND initializes its
	// jump stream from a single floor division: the term's count at lo
	// is max(0, 1+⌊a/period⌋) for a = lo+offset, and its first
	// in-window jump index is ⌈a/period⌉ = ⌊a/period⌋ + (a mod ≠ 0) —
	// the remainder is free. Stream s then jumps at t = k·period −
	// offset, where the term's unclamped count becomes 1+k; its
	// clamped contribution rises only once the unclamped count is ≥ 1.
	// Streams that never jump inside (lo, hi) are dropped here; rem
	// accumulates the cost mass of every contributing future jump.
	w := vc.fixed
	ns := 0
	var rem model.Time
	initStream := func(offset, period, cost model.Time) {
		a := lo + offset
		q := a / period
		rm := a - q*period
		if rm < 0 { // floor for negative numerators (period > 0)
			q--
			rm += period
		}
		if q >= 0 {
			w += (1 + q) * cost
		}
		k := q
		if rm != 0 {
			k++
		}
		t := k*period - offset
		if t <= lo { // the t = lo jump is already folded into W(lo)
			t += period
			k++
		}
		if t >= hi {
			return
		}
		heads[ns], periods[ns], costs[ns], ucount[ns] = t, period, cost, 1+k
		// Jumps in [t, hi): nj of them; the m-th (0-based) reaches
		// unclamped count (1+k)+m and contributes iff that is ≥ 1.
		nj := (hi - t + period - 1) / period
		skip := 1 - (1 + k) // leading non-contributing jumps
		if skip < 0 {
			skip = 0
		}
		if skip > nj {
			skip = nj
		}
		rem += (nj - skip) * cost
		ns++
	}
	initStream(vc.jitter, vc.period, vc.cslow)
	// Consecutive interferer terms with identical (A, period, charge)
	// triples collapse into ONE stream carrying the summed charge: the
	// members share every jump instant and every unclamped count, so the
	// merged stream's W(lo) contribution, jump increments and rem mass
	// are the exact member sums (integer multiplication distributes, and
	// each sum is a partial sum the quick guard above proved in-range).
	// The visited instants, W values, tie-breaks and the rem cutoff are
	// therefore bit-identical to the per-member scan. The cap keeps the
	// summed charge itself below TimeInfinity so its accumulation is
	// exact; runs past the cap simply split into several streams.
	iperiods, csj := vc.iperiods, vc.csj
	for x := 0; x < ni; {
		off, per, c := as[x], iperiods[x], csj[x]
		cc := c
		y := x + 1
		for y < ni && as[y] == off && iperiods[y] == per && csj[y] == c && cc+c < model.TimeInfinity {
			cc += c
			y++
		}
		initStream(off, per, cc)
		x = y
	}
	bestR, bestT := w+vc.clast-lo, lo
	if rem <= 1 { // no future jump can strictly beat W(lo)'s value
		return bestR, bestT
	}

	for {
		t := hi
		for s := 0; s < ns; s++ {
			if heads[s] < t {
				t = heads[s]
			}
		}
		if t >= hi {
			return bestR, bestT
		}
		for s := 0; s < ns; s++ {
			if heads[s] == t {
				if ucount[s] >= 1 {
					w += costs[s]
					rem -= costs[s]
				}
				ucount[s]++
				heads[s] += periods[s]
			}
		}
		r := w + vc.clast - t
		if r > bestR {
			bestR, bestT = r, t
		}
		if rem <= bestR-r+1 {
			return bestR, bestT
		}
	}
}

// fixScratch is the per-Analyzer working state of the prefix fixed
// point: slot lists, job/result buffers and the packed reverse
// dependency index. Reused across ensureSmax runs so warm delta
// re-analysis (admission churn) allocates only the fresh flat table
// per run.
type fixScratch struct {
	slotI        []int32
	slotK        []int32
	views        []*viewCache
	results      []model.Time
	dirty        []bool
	jobs         []engineJob
	entryChanged []bool
	changed      []int32
	revCounts    []int32
	revBack      []int32
	rev          [][]int32

	// prebuildViews: the flows to build, buildEntries' per-flow marks,
	// the per-flow state a.pre aliases, and the backing of the per-flow
	// event buffers.
	todo   []int32
	seen   []int32
	pre    []prebuilt
	events []obs.Event
}

// buildReverse maps every Smax entry id to the positions (in views) of
// the cached views that read it, packed into one scratch-backed array.
func (a *Analyzer) buildReverse(views []*viewCache) [][]int32 {
	fx := &a.fix
	if cap(fx.revCounts) < a.nEntries {
		fx.revCounts = make([]int32, a.nEntries)
	}
	counts := fx.revCounts[:a.nEntries]
	for e := range counts {
		counts[e] = 0
	}
	total := 0
	for _, vc := range views {
		total += len(vc.readIDs)
		for _, e := range vc.readIDs {
			counts[e]++
		}
	}
	if cap(fx.revBack) < total {
		fx.revBack = make([]int32, total)
	}
	backing := fx.revBack[:total]
	if cap(fx.rev) < a.nEntries {
		fx.rev = make([][]int32, a.nEntries)
	}
	rev := fx.rev[:a.nEntries]
	off := 0
	for e, c := range counts {
		rev[e] = backing[off : off+int(c) : off+int(c)]
		counts[e] = int32(off) // reused as the write cursor below
		off += int(c)
	}
	for m, vc := range views {
		for _, e := range vc.readIDs {
			backing[counts[e]] = int32(m)
			counts[e]++
		}
	}
	return rev
}

// enginePrefixFixpoint is the incremental counterpart of
// prefixFixpoint: the slot list, its view caches and the reverse
// dependency index are built once; each sweep re-evaluates only the
// slots whose Smax inputs changed in the previous sweep and updates the
// table in place. The fixed point is identical to the reference's —
// a clean slot's bound is a pure function of its unchanged inputs, so
// skipping it cannot alter any iterate.
//
// A nil seed selects the cold no-queue floor with every slot dirty. A
// non-nil seed warm-starts the iteration from a table that must lie
// between the no-queue floor and the fixed point, with dirtyFlows
// marking the flows whose slots need re-evaluation (nil = all): a slot
// of a clean flow must already satisfy its equation at the seed, so it
// is touched only when dirty propagation reaches it. The seed is
// read-only: its rows are copied into a fresh flat-backed table (WhatIf
// forks share one pendingSeed because of this).
func (a *Analyzer) enginePrefixFixpoint(ctx context.Context, seed smaxTable, dirtyFlows []bool) (smaxTable, []model.Time, int, bool, error) {
	fs, opt := a.fs, a.opt
	tr := opt.Tracer
	t, flat := newSmaxTableFlat(fs)
	if seed == nil {
		t.fillNoQueue(fs)
	} else {
		for i := range seed {
			copy(t[i], seed[i])
		}
	}
	horizon := opt.horizon()

	total := 0
	for _, f := range fs.Flows {
		total += len(f.Path) - 1
	}
	fx := &a.fix
	fx.slotI = fx.slotI[:0]
	fx.slotK = fx.slotK[:0]
	fx.views = fx.views[:0]
	a.prebuildViews()
	defer a.endPrebuild()
	for i, f := range fs.Flows {
		for k := 1; k < len(f.Path); k++ {
			vc, err := a.prefixCache(i, k)
			if err != nil {
				return nil, nil, 1, false, err
			}
			fx.slotI = append(fx.slotI, int32(i))
			fx.slotK = append(fx.slotK, int32(k))
			fx.views = append(fx.views, vc)
		}
	}
	rev := a.buildReverse(fx.views)

	fx.results = growTimes(fx.results, total)
	if cap(fx.dirty) < total {
		fx.dirty = make([]bool, total)
	}
	dirty := fx.dirty[:total]
	for m := range dirty {
		dirty[m] = dirtyFlows == nil || dirtyFlows[fx.slotI[m]]
	}
	if cap(fx.entryChanged) < a.nEntries {
		fx.entryChanged = make([]bool, a.nEntries)
	}
	entryChanged := fx.entryChanged[:a.nEntries]
	for e := range entryChanged {
		entryChanged[e] = false
	}
	changed := fx.changed[:0]

	for sweep := 1; sweep <= opt.maxIterations(); sweep++ {
		if err := ctxErr(ctx); err != nil {
			fx.changed = changed
			return nil, nil, sweep, false, err
		}
		jobs := fx.jobs[:0]
		for m := range fx.views {
			if dirty[m] {
				jobs = append(jobs, engineJob{fx.views[m], &fx.results[m]})
			}
		}
		fx.jobs = jobs
		if err := a.runJobs(ctx, jobs, flat); err != nil {
			fx.changed = changed
			return nil, nil, sweep, false, err
		}
		changed = changed[:0]
		for m := range fx.views {
			if !dirty[m] {
				continue
			}
			si, sk := int(fx.slotI[m]), int(fx.slotK[m])
			// The prefix bound is measured from generation time, so it
			// already covers the release jitter window; arrival at the
			// next node adds one link. results[m] ≤ TimeInfinity and
			// Lmax < 2^60, so the raw sum is exact.
			v := fx.results[m] + fs.Net.Lmax
			if model.IsUnbounded(v) {
				fx.changed = changed
				return nil, nil, sweep, false, model.Errorf(model.ErrOverflow,
					"trajectory: Smax prefix fixpoint overflows the time domain for flow %q node %d",
					fs.Flows[si].Name, fs.Flows[si].Path[sk])
			}
			if v > horizon {
				fx.changed = changed
				return nil, nil, sweep, false, model.Errorf(model.ErrUnstable,
					"trajectory: Smax prefix fixpoint diverges past horizon for flow %q node %d",
					fs.Flows[si].Name, fs.Flows[si].Path[sk])
			}
			e := a.entryBase[si] + sk
			if v > flat[e] {
				flat[e] = v
				if !entryChanged[e] {
					entryChanged[e] = true
					changed = append(changed, int32(e))
				}
			}
		}
		if tr != nil {
			tr.Emit(obs.Event{Type: obs.EvSmaxSweep, Sweep: sweep,
				Evaluated: len(jobs), Changed: len(changed)})
		}
		if len(changed) == 0 {
			fx.changed = changed
			return t, flat, sweep, true, nil
		}
		for m := range dirty {
			dirty[m] = false
		}
		for _, e := range changed {
			entryChanged[e] = false
			for _, m := range rev[e] {
				dirty[m] = true
			}
		}
	}
	fx.changed = changed
	return t, flat, opt.maxIterations(), false, nil
}
