package trajectory

import (
	"context"
	"sync"
	"sync/atomic"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// This file holds the sweep schedulers and the view prebuild:
//
//   - runViews: the reference path's serial loop over straight-line
//     boundForView computations (pathView jobs).
//   - runJobs: the engine's sweep over cached SoA views against a flat
//     Smax table.
//   - prebuildViews: the engine's view builds, one flow per job, ahead
//     of a fixed point's serial request loop.
//   - fanOut: the one parallel loop both run on, and WhatIf's
//     candidates too, with the calling goroutine as one of the workers.
//     The two engine schedules fan out only above fanoutFloor.
//
// The engine's parallel schedules produce results identical to serial
// execution — each job writes only its own slot and the first error in
// job/slot order wins — which is what keeps the engine differentially
// pinned to the serial reference at every worker count.

// viewJob is one independent bound computation of a fixed-point sweep.
type viewJob struct {
	view pathView
	// dst receives the resulting bound; each job writes a distinct slot.
	dst *model.Time
}

// safeBoundForView is boundForView with panic containment: a panic (a
// broken internal invariant) becomes ErrInternal, the same error the
// engine's workers report, instead of crashing the whole process.
func safeBoundForView(fs *model.FlowSet, opt Options, view pathView, smax smaxTable) (r model.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = 0, internalPanicError(view.flow, len(view.path), p)
		}
	}()
	if testPanicHook != nil {
		testPanicHook(view.flow, len(view.path))
	}
	return boundForView(fs, opt, view, smax)
}

// runViews evaluates the jobs in order against an immutable Smax table
// and returns the first error.
func runViews(fs *model.FlowSet, opt Options, smax smaxTable, jobs []viewJob) error {
	for k := range jobs {
		r, err := safeBoundForView(fs, opt, jobs[k].view, smax)
		if err != nil {
			return err
		}
		*jobs[k].dst = r
	}
	return nil
}

// engineJob pairs a cached view with its result slot for a sweep; a
// sweep lists its jobs in slot order.
type engineJob struct {
	vc  *viewCache
	dst *model.Time
}

// scratchPool recycles evaluation scratches across parallel sweeps and
// across Analyzers: admission churn creates short bursts of parallel
// evaluation on every mutation, and pooling keeps the steady state
// allocation-free instead of growing a per-worker slice per Analyzer.
// scratchPoolNews counts pool misses (fresh allocations) — the churn
// gauge exported by cmd/trajan's metrics endpoint; a steadily climbing
// value under constant load means the GC is draining the pool faster
// than the sweep cadence refills it.
var (
	scratchPoolNews atomic.Int64
	scratchPool     = sync.Pool{New: func() any {
		scratchPoolNews.Add(1)
		return new(evalScratch)
	}}
)

// ScratchPoolNews reports the cumulative number of evaluation scratches
// allocated because the pool was empty (process-wide, monotone).
func ScratchPoolNews() int64 { return scratchPoolNews.Load() }

// fanoutFloor is the work, in interferer entries, each goroutine of a
// sweep or a view prebuild must get for a second core to pay: a
// schedule of e entries runs on min(Options.Workers(), e/fanoutFloor)
// goroutines, so below 2·fanoutFloor it stays on the caller. Two
// workers first beat one on a sweep of about 10 000 entries; DESIGN.md
// §6.2 records the measurement.
const fanoutFloor = 16384

// testFanoutFloor, when positive, replaces fanoutFloor, so tests of the
// parallel schedules fan out on small sets. It is 0 in production.
var testFanoutFloor int

// fanoutWorkers returns the goroutine count, the caller included, of a
// schedule of entries interferer entries under a cap of workers.
func fanoutWorkers(workers, entries int) int {
	floor := fanoutFloor
	if testFanoutFloor > 0 {
		floor = testFanoutFloor
	}
	return max(1, min(workers, entries/floor))
}

// fanoutSpawns counts the goroutines fanOut has started, so tests can
// tell a schedule that fanned out from one that stayed on the caller.
var fanoutSpawns atomic.Int64

// fanOut runs job(k) for every k < n on up to workers goroutines, the
// calling one among them, each claiming the next unclaimed k; it
// returns once every goroutine has finished. Jobs must contain their
// own panics.
func fanOut(workers, n int, job func(k int)) {
	var next atomic.Int64
	drain := func() {
		for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
			job(int(k))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		fanoutSpawns.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// runJobs evaluates the jobs against an immutable flat Smax table. A
// sweep of fewer than two fanoutFloors of interferer entries runs on
// the caller with the Analyzer's own scratch and stops at the first
// error; a larger one fans out (fanOut) with a pooled scratch per job.
// Every job checks the context first (so a cancellation drains the
// sweep) and evaluates through safeEval, which contains panics as
// ErrInternal. The first error in SLOT order is returned, matching the
// serial path and the reference whatever order the jobs ran in.
func (a *Analyzer) runJobs(ctx context.Context, jobs []engineJob, flat []model.Time) error {
	workers := a.opt.Workers()
	if workers > 1 {
		entries := 0
		for k := range jobs {
			entries += len(jobs[k].vc.jflow) + 1
		}
		workers = fanoutWorkers(workers, entries)
	}
	if workers <= 1 {
		for k := range jobs {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			r, _, err := a.safeEval(jobs[k].vc, flat, &a.scratch)
			if err != nil {
				return err
			}
			*jobs[k].dst = r
		}
		return nil
	}
	errs := make([]error, len(jobs))
	fanOut(workers, len(jobs), func(k int) {
		if ctx.Err() != nil {
			return
		}
		sc := scratchPool.Get().(*evalScratch)
		r, _, err := a.safeEval(jobs[k].vc, flat, sc)
		scratchPool.Put(sc)
		if err != nil {
			errs[k] = err
			return
		}
		*jobs[k].dst = r
	})
	if err := ctxErr(ctx); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prebuilt is one flow's state between prebuildViews and the serial
// loop's first request for the flow (claimPrebuilt): pending marks a
// flow whose views were built ahead of that request, and events holds
// the EvBslow events the build emitted, to be replayed at it (nil when
// untraced).
type prebuilt struct {
	pending bool
	events  eventBuffer
}

// eventBuffer is a Tracer that keeps the events it receives, in order.
type eventBuffer []obs.Event

func (b *eventBuffer) Emit(e obs.Event) { *b = append(*b, e) }

// viewBuilder is one view-build state: buildViews' working state and
// the arena its views are carved from. Pooled across prebuilds and
// Analyzers, so a warm mutation's small prebuild, or a cold analysis of
// one small component after another, carves from a partly used chunk
// instead of opening fresh ones.
type viewBuilder struct {
	multi multiScratch
	arena slabArena
}

var builderPool = sync.Pool{New: func() any { return new(viewBuilder) }}

// borrowBuilder makes a one-shot Analyzer's serial view builds use a
// pooled viewBuilder; the returned function gives it back once the
// analysis is done. Views carved from the builder's chunks stay valid
// after it moves on: an arena only carves past what it handed out.
func (a *Analyzer) borrowBuilder() (giveBack func()) {
	b := builderPool.Get().(*viewBuilder)
	a.multi, a.arena = b.multi, b.arena
	return func() {
		b.multi, b.arena = a.multi, a.arena
		builderPool.Put(b)
	}
}

// prebuildViews builds, on the goroutines fanOut runs, the views of
// every flow whose views are all missing and whose path has at least
// two nodes: the flows the prefix fixed point's serial slot loop is
// about to request (one-hop flows have no prefix slot, so their views
// stay lazy). The Analyzer afterwards holds exactly the views that loop
// would have built, with two differences it repairs as the loop runs:
//
//   - The busy-period events of a flow's build are buffered and
//     replayed at the loop's first request for the flow (claimPrebuilt),
//     which is where the serial build would emit them.
//   - Views of flows the loop never reaches (it stopped at an earlier
//     error) are dropped again by endPrebuild.
//
// A view whose busy period fails stays nil, so the serial request
// rebuilds it and returns the identical error at the identical slot; a
// build that panics leaves the flow unbuilt, and the serial request
// meets the same panic. When the builds (buildEntries) do not reach two
// fanoutFloors, nothing is prebuilt and the loop builds every view
// itself.
func (a *Analyzer) prebuildViews() {
	workers := a.opt.Workers()
	if workers <= 1 {
		return
	}
	fs, fx := a.fs, &a.fix
	todo := fx.todo[:0]
	hops := 0
	for i, f := range fs.Flows {
		if len(f.Path) >= 2 && a.full[i] == nil && a.prefix[i] == nil {
			todo = append(todo, int32(i))
			hops += len(f.Path)
		}
	}
	fx.todo = todo
	workers = min(workers, len(todo))
	// hops·N bounds buildEntries from above: a set it keeps on the
	// caller never builds the node→flows index, which the fresh flow
	// set of a warm delta does not have yet.
	if fanoutWorkers(workers, hops*fs.N()) <= 1 {
		return
	}
	if workers = fanoutWorkers(workers, a.buildEntries(todo)); workers <= 1 {
		return
	}
	a.ensureTopo() // buildViews only reads it from here on
	fx.pre = growN(fx.pre, fs.N())
	clear(fx.pre)
	a.pre = fx.pre
	if a.opt.Tracer != nil {
		// A flow's build emits at most one event per view, and it has
		// len(Path) views: its buffer is carved at that capacity.
		fx.events = growN(fx.events, hops)
		off := 0
		for _, i := range todo {
			end := off + len(fs.Flows[i].Path)
			a.pre[i].events = fx.events[off:off:end]
			off = end
		}
	}
	fanOut(workers, len(todo), func(k int) {
		// A panicked build's state is not reused.
		if b := builderPool.Get().(*viewBuilder); a.prebuildFlow(int(todo[k]), b) {
			builderPool.Put(b)
		}
	})
}

// buildEntries estimates the work of building the todo flows' views in
// interferer entries: per flow, its path length times the flows that
// share a node with its path, read from the flow set's node→flows
// index.
func (a *Analyzer) buildEntries(todo []int32) int {
	fs, fx := a.fs, &a.fix
	fx.seen = growN(fx.seen, fs.N())
	clear(fx.seen)
	entries := 0
	for _, i := range todo {
		sharing := 0
		for _, h := range fs.Flows[i].Path {
			for _, j := range fs.FlowsAt(h) {
				if fx.seen[j] != i+1 {
					fx.seen[j] = i + 1
					sharing++
				}
			}
		}
		entries += len(fs.Flows[i].Path) * sharing
	}
	return entries
}

// prebuildFlow builds all of flow i's views with b's state, reporting
// false when the build panicked; the flow is then left unbuilt.
func (a *Analyzer) prebuildFlow(i int, b *viewBuilder) (ok bool) {
	p := &a.pre[i]
	defer func() {
		if recover() != nil {
			a.full[i], a.prefix[i] = nil, nil
			p.events, ok = nil, false
		}
	}()
	var tr obs.Tracer
	if a.opt.Tracer != nil {
		tr = &p.events
	}
	a.buildViews(i, len(a.fs.Flows[i].Path), &b.multi, &b.arena, tr)
	p.pending = true
	return true
}

// claimPrebuilt marks the serial loop's first request for flow i:
// the events its prebuild buffered go to the tracer now.
func (a *Analyzer) claimPrebuilt(i int) {
	p := &a.pre[i]
	if !p.pending {
		return
	}
	p.pending = false
	for _, e := range p.events {
		a.opt.Tracer.Emit(e)
	}
	p.events = nil
}

// endPrebuild closes the serial loop prebuildViews served: views of the
// flows it never requested are dropped, so the Analyzer holds the views
// — and a later run emits the events — of a serial build.
func (a *Analyzer) endPrebuild() {
	for i := range a.pre {
		if a.pre[i].pending {
			a.full[i], a.prefix[i] = nil, nil
		}
	}
	a.pre = nil
}
