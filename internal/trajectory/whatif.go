package trajectory

import (
	"context"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// Candidate describes one hypothetical mutation for WhatIf: exactly one
// of Add, Update or Remove should be set. Update and Remove identify
// their target through Index.
type Candidate struct {
	Add    *model.Flow // admit this flow
	Update *model.Flow // replace flow Index with this flow
	Remove bool        // evict flow Index
	Index  int
	// Keep retains the candidate's converged fork when its analysis
	// succeeds, until the Analyzer's next mutation or batch: a matching
	// AddFlow/UpdateFlow/RemoveFlow then installs the fork's state
	// instead of recomputing it (see keptFork).
	Keep bool
}

// WhatIfOutcome is one candidate's analysis: the bounds of the
// hypothetically mutated flow set, or the error the mutation or the
// analysis produced (exactly what AddFlow/UpdateFlow/RemoveFlow
// followed by Bounds would have returned on a real Analyzer).
type WhatIfOutcome struct {
	Bounds []model.Time
	Err    error
}

// keptFork is a Keep candidate's converged fork, reduced to what the
// matching mutation installs: the fork's state (flow set, views, entry
// bases, dense topology, Smax table and bounds) and, on a traced base,
// the events its mutation and Bounds emitted, which adoption re-emits
// to the base's tracer. flow is the fork's own copy of the candidate's
// flow (nil for a removal), so a caller that edits its *model.Flow after
// the batch gets no stale match.
type keptFork struct {
	op     string
	index  int // target of an update or removal; -1 for an add
	flow   *model.Flow
	state  *undoSnap
	events eventBuffer
}

// takeKept drops the kept forks and returns the one matching the
// mutation about to run, or nil: every mutation consumes the kept set,
// since a fork describes a successor of the current state only.
func (a *Analyzer) takeKept(op string, i int, f *model.Flow) *keptFork {
	kept := a.kept
	a.kept = nil
	for _, k := range kept {
		if k.op == op && k.index == i && (f == nil || k.flow.Equal(f)) {
			return k
		}
	}
	return nil
}

// adopt installs a kept fork's state, which is bit-identical to what
// the matching mutation followed by Bounds computes on this Analyzer
// (the WhatIf contract), and replays the events that work would have
// emitted. The caller fixes up the undo chain as its mutation would.
func (a *Analyzer) adopt(k *keptFork) {
	a.install(k.state)
	if tr := a.opt.Tracer; tr != nil {
		for _, e := range k.events {
			tr.Emit(e)
		}
	}
}

// WhatIf evaluates N candidate mutations against one immutable base
// snapshot, in parallel (up to Options.Parallelism candidates at once).
// The base Analyzer is not modified: each candidate runs on a
// copy-on-write fork sharing the base's flow set, converged Smax table
// and view caches, and patches only what its own mutation touches. A
// candidate's outcome is bit-identical to mutating a (copy of the) base
// and calling Bounds — including warm-start behavior, so a converged
// base makes every candidate a delta re-analysis. The batch replaces
// the kept forks of any earlier batch with those of its own successful
// Keep candidates.
func (a *Analyzer) WhatIf(cands []Candidate) []WhatIfOutcome {
	return a.WhatIfContext(context.Background(), cands)
}

// WhatIfContext is WhatIf with cancellation; a canceled context aborts
// in-flight candidates with ErrCanceled outcomes.
func (a *Analyzer) WhatIfContext(ctx context.Context, cands []Candidate) []WhatIfOutcome {
	a.kept = nil
	out := make([]WhatIfOutcome, len(cands))
	if len(cands) == 0 {
		return out
	}
	// Converge the base once so every fork warm-starts from the shared
	// table instead of each paying a cold fixed point. A latched base
	// error is fine — forks clear it on mutation and go cold; only a
	// cancellation aborts the batch.
	if err := a.ensureSmax(ctx); err != nil {
		if cErr := ctxErr(ctx); cErr != nil {
			for k := range out {
				out[k].Err = cErr
			}
			return out
		}
	} else {
		// Best-effort: materialize the full views so forks share them.
		for i := 0; i < a.fs.N(); i++ {
			if _, err := a.fullCache(i); err != nil {
				break
			}
		}
		// Build the dense topology once here too — forks alias it, so no
		// candidate pays the map-heavy construction on its own goroutine.
		a.ensureTopo()
	}

	workers := a.opt.Workers()
	if workers > len(cands) {
		workers = len(cands)
	}
	tr := a.opt.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvWhatIfBatch, Candidates: len(cands), Workers: workers})
	}
	kept := make([]*keptFork, len(cands))
	run := func(k int) {
		f := a.fork()
		c := &cands[k]
		var rec eventBuffer
		if c.Keep && tr != nil {
			f.opt.Tracer = &rec
		}
		// Seed the fork's serial evaluation scratch from the shared pool:
		// candidate analyses reuse grown buffers across the batch (and
		// across batches) instead of each fork growing its own from zero.
		psc := scratchPool.Get().(*evalScratch)
		f.scratch = *psc
		var err error
		op := "invalid"
		switch {
		case c.Add != nil:
			op = "add"
			_, err = f.AddFlow(c.Add)
		case c.Update != nil:
			op = "update"
			err = f.UpdateFlow(c.Index, c.Update)
		case c.Remove:
			op = "remove"
			err = f.RemoveFlow(c.Index)
		default:
			err = model.Errorf(model.ErrInvalidConfig, "trajectory: candidate %d specifies no mutation", k)
		}
		if err == nil {
			out[k].Bounds, out[k].Err = f.BoundsContext(ctx)
		} else {
			out[k].Err = err
		}
		if c.Keep && out[k].Err == nil {
			kf := &keptFork{op: op, index: c.Index, state: f.snapshot(), events: rec}
			switch op {
			case "add":
				kf.index, kf.flow = -1, f.fs.Flows[f.fs.N()-1]
			case "update":
				kf.flow = f.fs.Flows[c.Index]
			}
			kept[k] = kf
		}
		*psc = f.scratch
		scratchPool.Put(psc)
		if tr != nil {
			outcome := "ok"
			if out[k].Err != nil {
				outcome = "err"
			}
			tr.Emit(obs.Event{Type: obs.EvWhatIfCand, Index: k + 1, Op: op, Outcome: outcome})
		}
	}
	fanOut(workers, len(cands), run)
	for _, kf := range kept {
		if kf != nil {
			a.kept = append(a.kept, kf)
		}
	}
	return out
}

// fork produces a copy-on-write child of the Analyzer for one WhatIf
// candidate. The child shares the flow set, the converged Smax table,
// the entry bases and every built view object; the cache arrays
// themselves are copied so the child's lazy fills and remaps never
// write into base-owned (and sibling-shared) memory. Children run
// serially inside themselves — parallelism lives across candidates —
// and untraced: a hypothetical set is not the committed one, so its
// Smax runs, mutations and view builds must not reach the base's
// tracer. The batch reports itself through the whatif.batch and
// whatif.candidate events the base emits; a Keep candidate of a traced
// base records its events instead, and they reach the tracer only if
// the base adopts the fork.
func (a *Analyzer) fork() *Analyzer {
	f := &Analyzer{
		fs:        a.fs,
		opt:       a.opt,
		entryBase: a.entryBase,
		nEntries:  a.nEntries,
		topo:      a.topo,
		smax:      a.smax,
		smaxFlat:  a.smaxFlat,
		sweeps:    a.sweeps,
		converged: a.converged,
		smaxDone:  a.smaxDone,
		smaxErr:   a.smaxErr,
		cow:       true,
		// The fork's arena starts empty: it carves slices only for the
		// views its own mutation rebuilds or remaps, so sibling forks
		// never touch each other's chunks. pendingSeed/pendingDirty are
		// shared as-is — the engine fixed point copies the seed into a
		// fresh flat table instead of mutating it, and a fork's own
		// mutations replace (never write through) these references.
		pendingSeed:  a.pendingSeed,
		pendingDirty: a.pendingDirty,
		extendable:   a.extendable,
	}
	f.opt.Parallelism = 1
	f.opt.Tracer = nil
	f.full = append([]*viewCache(nil), a.full...)
	f.prefix = make([][]*viewCache, len(a.prefix))
	for i, row := range a.prefix {
		if row != nil {
			f.prefix[i] = append([]*viewCache(nil), row...)
		}
	}
	return f
}
