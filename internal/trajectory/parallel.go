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
//   - runViews: the reference path's channel-fed pool over straight-line
//     boundForView computations (pathView jobs).
//   - runJobs/colorSort: the engine's colored scheduler over cached SoA
//     views against a flat Smax table.
//   - prebuildViews: the engine's view builds, one flow per job, ahead
//     of a fixed point's serial request loop.
//
// All produce results identical to serial execution — each job writes
// only its own slot and the first error in job/slot order wins — which
// is what keeps the engine differentially pinned to the reference at
// every worker count.

// viewJob is one independent bound computation of a fixed-point sweep.
type viewJob struct {
	view pathView
	// dst receives the resulting bound; each job writes a distinct slot.
	dst *model.Time
	err error
}

// safeBoundForView is boundForView with panic containment: a panic in
// a worker (a broken internal invariant) becomes ErrInternal instead of
// crashing the whole process — essential because a panicking goroutine
// cannot be recovered by the caller.
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

// runViews evaluates the jobs against an immutable Smax table, fanning
// out across Options.Workers() goroutines. Each job writes only its
// own slot, so the result is identical to serial execution; the first
// error (by job order) is returned. All goroutines are joined before
// returning, whether or not a job failed.
func runViews(fs *model.FlowSet, opt Options, smax smaxTable, jobs []viewJob) error {
	workers := opt.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for k := range jobs {
			r, err := safeBoundForView(fs, opt, jobs[k].view, smax)
			if err != nil {
				return err
			}
			*jobs[k].dst = r
		}
		return nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for k := range jobs {
			next <- k
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				r, err := safeBoundForView(fs, opt, jobs[k].view, smax)
				if err != nil {
					jobs[k].err = err
					continue
				}
				*jobs[k].dst = r
			}
		}()
	}
	wg.Wait()
	for k := range jobs {
		if jobs[k].err != nil {
			return jobs[k].err
		}
	}
	return nil
}

// engineJob pairs a cached view with its result slot for a sweep; ord
// is the job's slot order, the tie-break for error selection under the
// colored parallel schedule.
type engineJob struct {
	vc  *viewCache
	dst *model.Time
	ord int32
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

// colorSort returns the jobs grouped by the interference-graph color of
// their flow (stable within a color, so slot order is preserved per
// class) — the colored parallel schedule. Workers drain the classes in
// order, so concurrently claimed jobs overwhelmingly belong to one
// class of pairwise NON-interfering flows: their A-offset gathers hit
// disjoint regions of the flat table instead of all workers chasing the
// same hot rows. Correctness never depends on the schedule — every
// evaluation reads the immutable previous table (Jacobi iteration) and
// commits happen post-barrier in slot order — so results stay
// bit-identical for every worker count; the determinism property test
// pins this.
func (a *Analyzer) colorSort(jobs []engineJob) []engineJob {
	colors := a.ensureColors()
	nc := int(a.nColors)
	if nc <= 1 {
		return jobs
	}
	fx := &a.fix
	if cap(fx.colorCount) < nc+1 {
		fx.colorCount = make([]int32, nc+1)
	}
	cnt := fx.colorCount[:nc+1]
	for c := range cnt {
		cnt[c] = 0
	}
	for k := range jobs {
		cnt[colors[jobs[k].vc.flow]+1]++
	}
	for c := 1; c <= nc; c++ {
		cnt[c] += cnt[c-1]
	}
	if cap(fx.sorted) < len(jobs) {
		fx.sorted = make([]engineJob, len(jobs))
	}
	sorted := fx.sorted[:len(jobs)]
	for k := range jobs {
		c := colors[jobs[k].vc.flow]
		sorted[cnt[c]] = jobs[k]
		cnt[c]++
	}
	return sorted
}

// runJobs evaluates the jobs against an immutable flat Smax table,
// fanning out across Options.Workers() goroutines with pooled
// per-worker scratches under the colored schedule. Every worker checks
// the context before claiming a job (so a cancellation drains the pool
// within one sweep) and evaluates through safeEval, which contains
// panics as ErrInternal. All goroutines are always joined before
// returning — a failure leaks nothing. The first error in SLOT order is
// returned (matching the serial path and the reference, independent of
// the colored claim order).
func (a *Analyzer) runJobs(ctx context.Context, jobs []engineJob, flat []model.Time) error {
	workers := a.opt.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
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
	sorted := a.colorSort(jobs)
	errs := make([]error, len(sorted))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*evalScratch)
			defer scratchPool.Put(sc)
			for {
				if ctx.Err() != nil {
					return
				}
				k := next.Add(1) - 1
				if k >= int64(len(sorted)) {
					return
				}
				r, _, err := a.safeEval(sorted[k].vc, flat, sc)
				if err != nil {
					errs[k] = err
					continue
				}
				*sorted[k].dst = r
			}
		}()
	}
	wg.Wait()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	var first error
	bestOrd := int32(-1)
	for k := range errs {
		if errs[k] != nil && (bestOrd < 0 || sorted[k].ord < bestOrd) {
			first, bestOrd = errs[k], sorted[k].ord
		}
	}
	return first
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

// viewBuilder is one prebuild worker's view-build state: buildViews'
// working state and the arena its views are carved from. Pooled across
// prebuilds and Analyzers, so a warm mutation's small prebuild carves
// from a partly used chunk instead of opening fresh ones.
type viewBuilder struct {
	multi multiScratch
	arena slabArena
}

var builderPool = sync.Pool{New: func() any { return new(viewBuilder) }}

// prebuildViews builds, on up to Options.Workers() goroutines, the
// views of every flow whose views are all missing and whose path has at
// least minLen nodes: the flows the caller's serial loop is
// about to request. The Analyzer afterwards holds exactly the views
// that loop would have built, with two differences it repairs as the
// loop runs:
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
// meets the same panic. With one worker, or fewer than two such flows,
// nothing is prebuilt and the loop builds every view itself.
func (a *Analyzer) prebuildViews(minLen int) {
	workers := a.opt.Workers()
	if workers <= 1 {
		return
	}
	fx := &a.fix
	todo := fx.todo[:0]
	for i, f := range a.fs.Flows {
		if len(f.Path) >= minLen && a.full[i] == nil && a.prefix[i] == nil {
			todo = append(todo, int32(i))
		}
	}
	fx.todo = todo
	if len(todo) < 2 {
		return
	}
	workers = min(workers, len(todo))
	a.ensureTopo() // buildViews only reads it from here on
	fx.pre = growN(fx.pre, a.fs.N())
	clear(fx.pre)
	a.pre = fx.pre
	if a.opt.Tracer != nil {
		// A flow's build emits at most one event per view, and it has
		// len(Path) views: its buffer is carved at that capacity.
		total := 0
		for _, i := range todo {
			total += len(a.fs.Flows[i].Path)
		}
		fx.events = growN(fx.events, total)
		off := 0
		for _, i := range todo {
			end := off + len(a.fs.Flows[i].Path)
			a.pre[i].events = fx.events[off:off:end]
			off = end
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := builderPool.Get().(*viewBuilder)
			for {
				k := next.Add(1) - 1
				if k >= int64(len(todo)) {
					break
				}
				if !a.prebuildFlow(int(todo[k]), b) {
					b = new(viewBuilder) // a panicked build's state is not reused
				}
			}
			builderPool.Put(b)
		}()
	}
	wg.Wait()
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
