package trajectory

import (
	"slices"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// Delta re-analysis: AddFlow / RemoveFlow / UpdateFlow mutate the
// Analyzer's cached interference graph in place of a cold rebuild. A
// mutation
//
//  1. derives the new flow set copy-on-write (model delta constructors),
//  2. keeps the rows of the flows the changed flow does not meet,
//     remapped when entry ids move, and drops the others, to be
//     re-derived on their next request (buildViews) from the state an
//     add, a release or a renegotiation of the period alone replaced
//     (derivation): after an add every view of a dropped row is that
//     state's view extended by the added flow's entry; after a release
//     or a period renegotiation, a view that does not hold the changed
//     flow — flow j's length-p view holds it exactly when it visits a
//     node of Path_j[:p] — is carried over as a copy, and the others are
//     shrunk from their pre-release columns minus the released entry
//     (deriveView), or patched, the new period re-running the busy
//     period (resumeView); after any other update every view of a
//     dropped row is rebuilt, and
//  3. leaves a warm-start seed for the Smax prefix fixed point: the
//     previously converged rows for untouched flows, the no-queue floor
//     for the flows whose equations changed.
//
// The state an add replaced is also its undo: removing the added flow
// restores it whole.
//
// Soundness of the warm start (see DESIGN.md §6): the sweep is a
// max-update chaotic iteration of a monotone operator F, so from any
// seed s with noqueue ≤ s ≤ lfp(F) it converges to exactly lfp(F).
// Adding a flow only grows F pointwise, so the old fixed point is a
// valid under-seed; so does lowering a flow's period, since every term
// of Property 2 and of the busy period is non-increasing in a period,
// and a deadline-only renegotiation leaves F as it was. Removing a flow,
// raising a period or any other update can shrink F, so every row in
// the interference closure of the changed flow restarts from the
// no-queue floor while rows outside the closure — whose equations form
// an unchanged, self-contained subsystem — keep their converged values.
// A flow-granular dirty set over-approximates the slots whose equations
// changed; a spurious mark only costs one no-op re-evaluation.
//
// Differential tests (delta_test.go, extend_test.go) pin the results of
// every mutated analyzer, including error strings, Unbounded verdicts
// and every re-derived view, to a cold NewAnalyzer over the same flow
// set.

// intersectors returns, per flow index of fs, whether that flow's path
// intersects flow i's (i itself excluded).
func intersectors(fs *model.FlowSet, i int) []bool {
	nbr := make([]bool, fs.N())
	plen := len(fs.Flows[i].Path)
	for j := range nbr {
		if j != i && fs.PrefixRelation(i, plen, j).Intersects {
			nbr[j] = true
		}
	}
	return nbr
}

// derivation is the state an add, a release or a period-only
// renegotiation replaced, kept by its successor (state.derive): the
// source buildViews re-derives each dropped view from, and an add's
// undo. Exactly one of added, removed and updated is a flow index, the
// others are -1: added is the new flow's index in the successor,
// removed the released flow's in the predecessor, updated the
// renegotiated flow's in both. The predecessor's own derivation is cut
// (predecessor), so one generation is kept.
type derivation struct {
	state
	added, removed, updated int
}

// predecessor returns the current state as the derivation of the
// successor a mutation is building.
func (a *Analyzer) predecessor(added, removed, updated int) *derivation {
	d := &derivation{state: a.state, added: added, removed: removed, updated: updated}
	d.derive = nil
	return d
}

// changes reports whether flow i's view ov in the predecessor is one
// the mutation changed: every view of a row an add dropped, and after a
// release or a renegotiation a view that holds the changed flow, or the
// renegotiated flow's own.
func (d *derivation) changes(i int, ov *viewCache) bool {
	if d.added >= 0 {
		return true
	}
	u := d.removed
	if u < 0 {
		u = d.updated
	}
	_, held := slices.BinarySearch(ov.jflow, int32(u))
	return held || i == d.updated
}

// periodOnly reports whether g differs from f at most in its period and
// deadline. The analysis never reads a deadline, and a view reads a
// flow's period only as its own period or an interferer's, so a
// renegotiation of that kind moves nothing else in any view.
func periodOnly(f, g *model.Flow) bool {
	h := *g
	h.Period, h.Deadline = f.Period, f.Deadline
	return h.Equal(f)
}

// closureFrom expands a seed set of flows to its transitive closure
// under path intersection in fs — the subsystem of Smax equations that
// a change inside the seed can reach. Flows outside the closure neither
// read nor feed any closure entry, so their converged rows survive a
// removal or update intact.
func closureFrom(fs *model.FlowSet, seed []bool) []bool {
	in := make([]bool, fs.N())
	queue := make([]int, 0, fs.N())
	for j, s := range seed {
		if s {
			in[j] = true
			queue = append(queue, j)
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		plen := len(fs.Flows[x].Path)
		for y := range in {
			if !in[y] && y != x && fs.PrefixRelation(x, plen, y).Intersects {
				in[y] = true
				queue = append(queue, y)
			}
		}
	}
	return in
}

// remapView rewrites a kept view for a mutated flow list: flow indexes
// above `removed` shift down by one (removed < 0 means no shift, only
// the entry ids changed), and the precomputed global entry ids and the
// read set are translated to the new bases. Only views that do NOT
// hold the changed flow are ever remapped, so the cached
// constants (A offsets, M terms, slow node, Bslow) remain exact —
// which is why the clone below shares the constant arrays (aConst,
// csj, iperiods, sameDir) and copies only the index-bearing ones.
// Remapping runs while the Analyzer still holds the PRE-mutation entry
// bases (a.entryBase); the new bases arrive as the entryBase argument.
// On a copy-on-write fork the view is cloned first — the original
// stays aliased by the base Analyzer.
func (a *Analyzer) remapView(vc *viewCache, removed int, entryBase []int) *viewCache {
	if vc == nil {
		return nil
	}
	if a.cow {
		clone := a.arena.newView()
		*clone = *vc
		clone.jflow = arenaClone(&a.arena.ints, vc.jflow)
		clone.iEnt = arenaClone(&a.arena.ints, vc.iEnt)
		clone.jEnt = arenaClone(&a.arena.ints, vc.jEnt)
		clone.readIDs = arenaClone(&a.arena.ints, vc.readIDs)
		vc = clone
	}
	remapIDs(vc, removed, a.entryBase, entryBase)
	return vc
}

// remapIDs re-indexes vc in place from the entry bases oldBase to
// entryBase (see remapView).
func remapIDs(vc *viewCache, removed int, oldBase, entryBase []int) {
	oldFlow := vc.flow
	if removed >= 0 && vc.flow > removed {
		vc.flow--
	}
	newBaseI := int32(entryBase[vc.flow])
	oldBaseI := int32(oldBase[oldFlow])
	// The read set lists, per interferer x in order, iEnt[x] unless an
	// earlier interferer read it, then jEnt[x] (which lies in its own
	// flow's entry range, so never repeats and never equals an iEnt) —
	// so a cursor walking it alongside x meets the old iEnt[x] exactly
	// at its first occurrence, and translates it in place.
	r := 0
	for x := range vc.jflow {
		oj := int(vc.jflow[x])
		nj := oj
		if removed >= 0 && oj > removed {
			nj = oj - 1
			vc.jflow[x] = int32(nj)
		}
		iEnt := newBaseI + (vc.iEnt[x] - oldBaseI)
		if vc.readIDs[r] == vc.iEnt[x] {
			vc.readIDs[r] = iEnt
			r++
		}
		vc.iEnt[x] = iEnt
		vc.jEnt[x] = int32(entryBase[nj]) + (vc.jEnt[x] - int32(oldBase[oj]))
		vc.readIDs[r] = vc.jEnt[x]
		r++
	}
}

// remapPrefixRow remaps every built view of one flow's prefix row.
func (a *Analyzer) remapPrefixRow(row []*viewCache, removed int, entryBase []int) []*viewCache {
	if row == nil {
		return nil
	}
	if a.cow {
		row = append([]*viewCache(nil), row...)
	}
	for k := range row {
		row[k] = a.remapView(row[k], removed, entryBase)
	}
	return row
}

// rowOf maps row j of a mutated flow list to its row before the
// mutation: rows at and above a removed index (removed ≥ 0) shift up by
// one, and a row at or past nOld, the old flow count, is an added flow
// (−1).
func rowOf(j, removed, nOld int) int {
	if removed >= 0 && j >= removed {
		return j + 1
	}
	if j >= nOld {
		return -1
	}
	return j
}

// keptViews returns the n view rows of a mutated flow list: row j
// carries over the views of its old row (rowOf) unless that row is
// dropped (drop, indexed by old rows; nil drops none), remapped to the
// entry bases eb when remap is set. A dropped row and a new flow start
// empty; on the row's next request buildViews carries over the views
// the change left alone and extends, re-derives or builds the rest.
func (a *Analyzer) keptViews(n, removed int, drop []bool, remap bool, eb []int) ([]*viewCache, [][]*viewCache) {
	full := make([]*viewCache, n)
	prefix := make([][]*viewCache, n)
	nOld := a.fs.N()
	for j := range full {
		o := rowOf(j, removed, nOld)
		switch {
		case o < 0 || (drop != nil && drop[o]):
		case remap:
			full[j] = a.remapView(a.full[o], removed, eb)
			prefix[j] = a.remapPrefixRow(a.prefix[o], removed, eb)
		default:
			full[j], prefix[j] = a.full[o], a.prefix[o]
		}
	}
	return full, prefix
}

// warmSeed returns the under-seed the next fixed point of nfs starts
// from, with its per-flow dirty marks, or nils when the current state
// has neither a converged table nor a seed of its own. Row j copies its
// old row (rowOf) and stays as dirty as that row was, or turns dirty
// when touched[j]; a new flow and a row with reset[j] restart from the
// no-queue floor, dirty. reset and touched are indexed by new rows and
// may be nil.
func (a *Analyzer) warmSeed(nfs *model.FlowSet, removed int, reset, touched []bool) (smaxTable, []bool) {
	src, srcDirty := a.pendingSeed, a.pendingDirty
	// A cancellation mid warm run leaves the seed all dirty.
	allDirty := src != nil && srcDirty == nil
	if src == nil {
		if !a.smaxDone || a.smaxErr != nil || !a.converged {
			return nil, nil
		}
		src = a.smax
	}
	nOld := a.fs.N()
	seed, _ := newSmaxTableFlat(nfs)
	dirty := make([]bool, nfs.N())
	for j := range dirty {
		o := rowOf(j, removed, nOld)
		if o < 0 || (reset != nil && reset[j]) {
			seed.fillNoQueueRow(nfs, j)
			dirty[j] = true
			continue
		}
		copy(seed[j], src[o])
		dirty[j] = allDirty || (touched != nil && touched[j]) || (srcDirty != nil && srcDirty[o])
	}
	return seed, dirty
}

// commit installs next, the successor state a mutation built, and
// reports the mutation to the tracer.
func (a *Analyzer) commit(op, name string, next state) {
	a.state = next
	if tr := a.opt.Tracer; tr != nil {
		emitDelta(tr, op, name, next.pendingSeed != nil, next.pendingDirty)
	}
}

// AddFlow admits a copy of f into the analyzer's flow set and returns
// its index (always N()-1). Views of flows that do not intersect f are
// kept; the views of flows that do are extended on their next request:
// f is their last interferer, so each is the pre-add view (from the
// state this call replaces, kept as its derivation) with f's entry
// appended. The Smax fixed point warm-starts from the previous
// converged table, which remains a valid under-seed because an added
// flow only grows the interference operator. On a validation error
// (invalid flow, duplicate name, Assumption-1 violation — the exact
// errors NewFlowSet would report) the analyzer is unchanged and remains
// usable. When the last WhatIf batch kept a fork for this very add, its
// converged state is installed instead (adopt).
func (a *Analyzer) AddFlow(f *model.Flow) (idx int, err error) {
	defer func() {
		if p := recover(); p != nil {
			idx, err = 0, model.Errorf(model.ErrInternal, "trajectory: internal panic in AddFlow: %v", p)
		}
	}()
	if k := a.takeKept("add", -1, f); k != nil {
		a.adopt(k)
		return a.fs.N() - 1, nil
	}
	nfs, err := a.fs.WithFlowAdded(f)
	if err != nil {
		return 0, err
	}
	nOld := a.fs.N()
	// Views of the flows that gain the new interferer are dropped and
	// extended lazily (buildViews). Existing flows keep their entry ids
	// (the new flow's entries append at the end), so the other views
	// carry over as-is, read sets included.
	nbr := intersectors(nfs, nOld)
	next := state{fs: nfs, derive: a.predecessor(nOld, -1, -1)}
	next.full, next.prefix = a.keptViews(nOld+1, -1, nbr, false, nil)
	next.entryBase, next.nEntries = entryBases(nfs)
	next.pendingSeed, next.pendingDirty = a.warmSeed(nfs, -1, nil, nbr)
	if a.topo != nil {
		// Copy-on-write extension; nil (lazy full rebuild) when the new
		// path visits nodes the dense universe has never seen.
		next.topo = a.topo.withFlowAdded(nfs.Flows[nOld].Path)
	}
	a.commit("add", nfs.Flows[nOld].Name, next)
	return nOld, nil
}

// RemoveFlow evicts the flow at index i; flows above it shift down by
// one. Removing the flow the last mutation added (the admission-probe
// reject path) restores the exact pre-AddFlow state in O(1) from its
// derivation. The general path remaps the rows of the flows it did
// not meet in place, leaves the others to be re-derived on their next
// request — each view carried over, or shrunk when it holds the removed
// flow (deriveView) — and restarts the interference closure of the
// removed flow from the no-queue floor; rows outside the closure keep
// their converged values.
// A kept WhatIf fork of this removal replaces the general path (adopt).
func (a *Analyzer) RemoveFlow(i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = model.Errorf(model.ErrInternal, "trajectory: internal panic in RemoveFlow: %v", p)
		}
	}()
	kept := a.takeKept("remove", i, nil)
	if i < 0 || i >= a.fs.N() {
		return model.Errorf(model.ErrInvalidConfig, "trajectory: flow index %d out of range [0,%d)", i, a.fs.N())
	}
	if d := a.derive; d != nil && d.added == i {
		name := a.fs.Flows[i].Name
		a.state = d.state
		if tr := a.opt.Tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvDelta, Op: "remove", Flow: name, Outcome: "undo"})
		}
		return nil
	}
	if kept != nil {
		a.adopt(kept)
		return nil
	}
	nfs, err := a.fs.WithFlowRemoved(i)
	if err != nil {
		return err
	}
	nOld := a.fs.N()
	nbr := intersectors(a.fs, i) // old indexes
	closureSeed := make([]bool, nOld-1)
	for j := range closureSeed {
		closureSeed[j] = nbr[rowOf(j, i, nOld)]
	}
	next := state{fs: nfs, derive: a.predecessor(-1, i, -1)}
	next.entryBase, next.nEntries = entryBases(nfs)
	next.full, next.prefix = a.keptViews(nOld-1, i, nbr, true, next.entryBase)
	next.pendingSeed, next.pendingDirty = a.warmSeed(nfs, i, closureFrom(nfs, closureSeed), nil)
	if a.topo != nil {
		next.topo = a.topo.withFlowRemoved(i)
	}
	a.commit("remove", a.fs.Flows[i].Name, next)
	return nil
}

// UpdateFlow replaces the flow at index i with a copy of f (same
// index, new parameters). Rows of flows that neither the old nor the
// new flow meets survive. A renegotiation of the period alone patches,
// on their next request, the views that hold the flow and its own
// (deriveView), carrying the others of their rows over, and, when the
// period does not rise, warm-starts the fixed point like an add; a
// deadline-only change keeps every view. Any other update rebuilds the
// dropped rows, and the interference closure of both flows restarts
// from the no-queue floor. Validation errors leave the
// analyzer unchanged. A kept WhatIf fork of this update is installed
// instead (adopt).
func (a *Analyzer) UpdateFlow(i int, f *model.Flow) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = model.Errorf(model.ErrInternal, "trajectory: internal panic in UpdateFlow: %v", p)
		}
	}()
	if k := a.takeKept("update", i, f); k != nil {
		a.adopt(k)
		return nil
	}
	if i < 0 || i >= a.fs.N() {
		return model.Errorf(model.ErrInvalidConfig, "trajectory: flow index %d out of range [0,%d)", i, a.fs.N())
	}
	nfs, err := a.fs.WithFlowUpdated(i, f)
	if err != nil {
		return err
	}
	old, nf := a.fs.Flows[i], nfs.Flows[i]
	affected := intersectors(a.fs, i)
	affected[i] = true
	next := state{fs: nfs, entryBase: a.entryBase, nEntries: a.nEntries, topo: a.topo}
	remap, grows := false, false
	switch {
	case !periodOnly(old, nf):
		for j, in := range intersectors(nfs, i) {
			affected[j] = affected[j] || in
		}
		// Entry ids move only when the path changes length.
		if remap = len(nf.Path) != len(old.Path); remap {
			next.entryBase, next.nEntries = entryBases(nfs)
		}
		if a.topo != nil {
			next.topo = a.topo.withFlowUpdated(i, nf.Path)
		}
	case nf.Period == old.Period:
		affected, grows = nil, true
	default:
		grows = nf.Period < old.Period
		next.derive = a.predecessor(-1, -1, i)
	}
	next.full, next.prefix = a.keptViews(nfs.N(), -1, affected, remap, next.entryBase)
	if grows {
		next.pendingSeed, next.pendingDirty = a.warmSeed(nfs, -1, nil, affected)
	} else {
		next.pendingSeed, next.pendingDirty = a.warmSeed(nfs, -1, closureFrom(nfs, affected), nil)
	}
	a.commit("update", nfs.Flows[i].Name, next)
	return nil
}
