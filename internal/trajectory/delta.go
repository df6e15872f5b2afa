package trajectory

import (
	"trajan/internal/model"
	"trajan/internal/obs"
)

// Delta re-analysis: AddFlow / RemoveFlow / UpdateFlow mutate the
// Analyzer's cached interference graph in place of a cold rebuild. A
// mutation
//
//  1. derives the new flow set copy-on-write (model delta constructors),
//  2. keeps every cached view whose interferer set the change cannot
//     touch (flows whose paths do not intersect the changed flow) and
//     drops only the reachable ones; after an add, buildViews extends a
//     dropped view from its counterpart in the newest undo snapshot
//     that holds it, sweeping only the appended flows, while a removal
//     or update rebuilds it, and
//  3. leaves a warm-start seed for the Smax prefix fixed point: the
//     previously converged rows for untouched flows, the no-queue floor
//     for the flows whose equations changed.
//
// Soundness of the warm start (see DESIGN.md §6): the sweep is a
// max-update chaotic iteration of a monotone operator F, so from any
// seed s with noqueue ≤ s ≤ lfp(F) it converges to exactly lfp(F).
// Adding a flow only grows F pointwise, so the old fixed point is a
// valid under-seed; removing or updating a flow can shrink F, so every
// row in the interference closure of the changed flow restarts from the
// no-queue floor while rows outside the closure — whose equations form
// an unchanged, self-contained subsystem — keep their converged values.
// A flow-granular dirty set over-approximates the slots whose equations
// changed; a spurious mark only costs one no-op re-evaluation.
//
// Differential tests (delta_test.go) pin the results of every mutated
// analyzer, including error strings and Unbounded verdicts, to a cold
// NewAnalyzer over the same flow set.

// maxUndoDepth bounds the AddFlow snapshot chain; deeper chains drop
// their oldest entry (the corresponding RemoveFlow then takes the
// general path, which is still correct, just not O(1)).
const maxUndoDepth = 32

// undoSnap captures the Analyzer's complete state: a pre-AddFlow
// snapshot on the undo chain, or a kept WhatIf fork's converged state
// (keptFork). AddFlow never mutates the structures a snapshot aliases —
// it builds fresh outer arrays and a fresh seed table — so restoring is
// O(1) and bit-exact.
type undoSnap struct {
	prev      *undoSnap
	fs        *model.FlowSet
	full      []*viewCache
	prefix    [][]*viewCache
	entryBase []int
	nEntries  int

	topo *denseTopo

	smax      smaxTable
	smaxFlat  []model.Time
	sweeps    int
	converged bool
	smaxDone  bool
	smaxErr   error
	bounds    []model.Time

	pendingSeed  smaxTable
	pendingDirty []bool
}

// warmEligible reports whether the next fixed point may start from the
// previous state: either a converged table exists, or an earlier
// mutation already left a valid under-seed behind.
func (a *Analyzer) warmEligible() bool {
	if a.opt.Smax != SmaxPrefixFixpoint {
		return false
	}
	if a.pendingSeed != nil {
		return true
	}
	return a.smaxDone && a.smaxErr == nil && a.converged
}

// seedSource returns the table warm seeds copy their untouched rows
// from, and whether its rows are uniformly dirty (a cancellation mid
// warm run widens the dirty set to everything).
func (a *Analyzer) seedSource() (src smaxTable, srcDirty []bool, allDirty bool) {
	if a.pendingSeed != nil {
		return a.pendingSeed, a.pendingDirty, a.pendingDirty == nil
	}
	return a.smax, nil, false
}

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
// interfere with the changed flow are ever remapped, so the cached
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
		ni := len(vc.jflow)
		clone.jflow = arenaSlice(&a.arena.ints, ni)
		copy(clone.jflow, vc.jflow)
		clone.iEnt = arenaSlice(&a.arena.ints, ni)
		copy(clone.iEnt, vc.iEnt)
		clone.jEnt = arenaSlice(&a.arena.ints, ni)
		copy(clone.jEnt, vc.jEnt)
		clone.readIDs = arenaSlice(&a.arena.ints, len(vc.readIDs))
		copy(clone.readIDs, vc.readIDs)
		vc = clone
	}
	oldFlow := vc.flow
	oldBase := a.entryBase
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
	return vc
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

// resetSmaxState drops the cached fixed point and its error latches: a
// mutation gives the analyzer a new flow set, and a previously latched
// divergence verdict no longer describes it.
func (a *Analyzer) resetSmaxState() {
	a.smax = nil
	a.smaxFlat = nil
	a.sweeps = 0
	a.converged = false
	a.smaxDone = false
	a.smaxErr = nil
	a.bounds = nil
}

// snapshot captures the current state (prev unset).
func (a *Analyzer) snapshot() *undoSnap {
	return &undoSnap{
		fs:        a.fs,
		full:      a.full,
		prefix:    a.prefix,
		entryBase: a.entryBase,
		nEntries:  a.nEntries,

		topo: a.topo,

		smax:      a.smax,
		smaxFlat:  a.smaxFlat,
		sweeps:    a.sweeps,
		converged: a.converged,
		smaxDone:  a.smaxDone,
		smaxErr:   a.smaxErr,
		bounds:    a.bounds,

		pendingSeed:  a.pendingSeed,
		pendingDirty: a.pendingDirty,
	}
}

// install makes s the current state; the undo chain is the caller's.
// Topo extensions never mutate the rows a snapshot's topo aliases
// (delta constructors are copy-on-write), so installing the pointer is
// exact.
func (a *Analyzer) install(s *undoSnap) {
	a.fs, a.full, a.prefix = s.fs, s.full, s.prefix
	a.entryBase, a.nEntries = s.entryBase, s.nEntries
	a.topo = s.topo
	a.smax, a.smaxFlat = s.smax, s.smaxFlat
	a.sweeps, a.converged = s.sweeps, s.converged
	a.smaxDone, a.smaxErr, a.bounds = s.smaxDone, s.smaxErr, s.bounds
	a.pendingSeed, a.pendingDirty = s.pendingSeed, s.pendingDirty
}

// pushUndo records the current state on the snapshot chain.
func (a *Analyzer) pushUndo() {
	if a.undoDepth >= maxUndoDepth {
		s := a.undo
		for s.prev != nil && s.prev.prev != nil {
			s = s.prev
		}
		s.prev = nil
		a.undoDepth--
	}
	s := a.snapshot()
	s.prev = a.undo
	a.undo = s
	a.undoDepth++
}

// restore pops one snapshot.
func (a *Analyzer) restore(s *undoSnap) {
	a.install(s)
	a.undo = s.prev
	a.undoDepth--
}

// AddFlow admits a copy of f into the analyzer's flow set and returns
// its index (always N()-1). Views of flows that do not intersect f are
// kept; the views of flows that do are extended on their next request:
// f is their last interferer, so each is the pre-add view (from the
// snapshot this call pushes) with f's entry appended. The Smax fixed
// point warm-starts from the previous converged table, which remains a
// valid under-seed because an added flow only grows the interference
// operator. On a validation error (invalid flow,
// duplicate name, Assumption-1 violation — the exact errors NewFlowSet
// would report) the analyzer is unchanged and remains usable. When the
// last WhatIf batch kept a fork for this very add, its converged state
// is installed instead (adopt).
func (a *Analyzer) AddFlow(f *model.Flow) (idx int, err error) {
	defer func() {
		if p := recover(); p != nil {
			idx, err = 0, model.Errorf(model.ErrInternal, "trajectory: internal panic in AddFlow: %v", p)
		}
	}()
	if k := a.takeKept("add", -1, f); k != nil {
		a.pushUndo()
		a.adopt(k)
		return a.fs.N() - 1, nil
	}
	nfs, err := a.fs.WithFlowAdded(f)
	if err != nil {
		return 0, err
	}
	nOld := a.fs.N()
	warm := a.warmEligible()
	src, srcDirty, srcAllDirty := a.seedSource()

	// Existing flows whose views gain the new interferer.
	nbr := intersectors(nfs, nOld)

	full := make([]*viewCache, nOld+1)
	prefix := make([][]*viewCache, nOld+1)
	for j := 0; j < nOld; j++ {
		if nbr[j] {
			continue // extended lazily with the new interferer (buildViews)
		}
		// Entry ids of existing flows are unchanged (the new flow's
		// entries append at the end), so untouched views carry over
		// as-is — including their read sets.
		full[j] = a.full[j]
		prefix[j] = a.prefix[j]
	}
	entryBase := make([]int, nOld+1)
	copy(entryBase, a.entryBase)
	entryBase[nOld] = a.nEntries

	var seed smaxTable
	var dirty []bool
	if warm {
		seed, _ = newSmaxTableFlat(nfs)
		dirty = make([]bool, nOld+1)
		for j := 0; j < nOld; j++ {
			copy(seed[j], src[j])
			dirty[j] = nbr[j] || srcAllDirty || (srcDirty != nil && srcDirty[j])
		}
		seed.fillNoQueueRow(nfs, nOld)
		dirty[nOld] = true
	}

	a.pushUndo()
	a.fs = nfs
	a.full, a.prefix = full, prefix
	a.entryBase = entryBase
	a.nEntries += len(nfs.Flows[nOld].Path)
	if a.topo != nil {
		// Copy-on-write extension; nil (lazy full rebuild) when the new
		// path visits nodes the dense universe has never seen.
		a.topo = a.topo.withFlowAdded(nfs.Flows[nOld].Path)
	}
	a.resetSmaxState()
	a.pendingSeed, a.pendingDirty = seed, dirty
	if tr := a.opt.Tracer; tr != nil {
		emitDelta(tr, "add", nfs.Flows[nOld].Name, warm, dirty)
	}
	return nOld, nil
}

// RemoveFlow evicts the flow at index i; flows above it shift down by
// one. Removing the most recently added flow (the admission-probe
// reject path) restores the exact pre-AddFlow state in O(1) from the
// snapshot chain. The general path remaps the kept views in place and
// restarts the interference closure of the removed flow from the
// no-queue floor; rows outside the closure keep their converged values.
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
	if i == a.fs.N()-1 && a.undo != nil && a.undo.fs.N() == i {
		name := a.fs.Flows[i].Name
		a.restore(a.undo)
		if tr := a.opt.Tracer; tr != nil {
			tr.Emit(obs.Event{Type: obs.EvDelta, Op: "remove", Flow: name, Outcome: "undo"})
		}
		return nil
	}
	if kept != nil {
		a.undo, a.undoDepth = nil, 0
		a.adopt(kept)
		return nil
	}
	nfs, err := a.fs.WithFlowRemoved(i)
	if err != nil {
		return err
	}
	name := a.fs.Flows[i].Name
	nOld := a.fs.N()
	warm := a.warmEligible()
	src, srcDirty, srcAllDirty := a.seedSource()
	nbr := intersectors(a.fs, i) // old indexes

	// The general path invalidates the snapshot chain: snapshots alias
	// view objects that are about to be remapped in place.
	a.undo, a.undoDepth = nil, 0

	entryBase := make([]int, nOld-1)
	n := 0
	for nj, f := range nfs.Flows {
		entryBase[nj] = n
		n += len(f.Path)
	}

	closureSeed := make([]bool, nOld-1)
	for nj := range closureSeed {
		oj := nj
		if nj >= i {
			oj = nj + 1
		}
		closureSeed[nj] = nbr[oj]
	}
	closure := closureFrom(nfs, closureSeed)

	full := make([]*viewCache, nOld-1)
	prefix := make([][]*viewCache, nOld-1)
	var seed smaxTable
	var dirty []bool
	if warm {
		seed, _ = newSmaxTableFlat(nfs)
		dirty = make([]bool, nOld-1)
	}
	for nj := 0; nj < nOld-1; nj++ {
		oj := nj
		if nj >= i {
			oj = nj + 1
		}
		if !nbr[oj] {
			full[nj] = a.remapView(a.full[oj], i, entryBase)
			prefix[nj] = a.remapPrefixRow(a.prefix[oj], i, entryBase)
		}
		if warm {
			if closure[nj] {
				seed.fillNoQueueRow(nfs, nj)
				dirty[nj] = true
			} else {
				copy(seed[nj], src[oj])
				dirty[nj] = srcAllDirty || (srcDirty != nil && srcDirty[oj])
			}
		}
	}

	a.fs = nfs
	a.full, a.prefix = full, prefix
	a.entryBase, a.nEntries = entryBase, n
	if a.topo != nil {
		a.topo = a.topo.withFlowRemoved(i)
	}
	a.resetSmaxState()
	a.pendingSeed, a.pendingDirty = seed, dirty
	if tr := a.opt.Tracer; tr != nil {
		emitDelta(tr, "remove", name, warm, dirty)
	}
	return nil
}

// UpdateFlow replaces the flow at index i with a copy of f (same
// index, new parameters). Views of flows intersecting neither the old
// nor the new flow survive; the interference closure of both restarts
// from the no-queue floor. Validation errors leave the analyzer
// unchanged. A kept WhatIf fork of this update is installed instead
// (adopt).
func (a *Analyzer) UpdateFlow(i int, f *model.Flow) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = model.Errorf(model.ErrInternal, "trajectory: internal panic in UpdateFlow: %v", p)
		}
	}()
	if k := a.takeKept("update", i, f); k != nil {
		a.undo, a.undoDepth = nil, 0
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
	n := a.fs.N()
	warm := a.warmEligible()
	src, srcDirty, srcAllDirty := a.seedSource()

	oldNbr := intersectors(a.fs, i)
	newNbr := intersectors(nfs, i)
	affected := make([]bool, n)
	for j := range affected {
		affected[j] = j == i || oldNbr[j] || newNbr[j]
	}
	closure := closureFrom(nfs, affected)

	a.undo, a.undoDepth = nil, 0

	sameLen := len(nfs.Flows[i].Path) == len(a.fs.Flows[i].Path)
	entryBase := a.entryBase
	nEntries := a.nEntries
	if !sameLen {
		entryBase = make([]int, n)
		nEntries = 0
		for j, fl := range nfs.Flows {
			entryBase[j] = nEntries
			nEntries += len(fl.Path)
		}
	}

	full := make([]*viewCache, n)
	prefix := make([][]*viewCache, n)
	var seed smaxTable
	var dirty []bool
	if warm {
		seed, _ = newSmaxTableFlat(nfs)
		dirty = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		if !affected[j] {
			if sameLen {
				full[j] = a.full[j]
				prefix[j] = a.prefix[j]
			} else {
				full[j] = a.remapView(a.full[j], -1, entryBase)
				prefix[j] = a.remapPrefixRow(a.prefix[j], -1, entryBase)
			}
		}
		if warm {
			if closure[j] {
				seed.fillNoQueueRow(nfs, j)
				dirty[j] = true
			} else {
				copy(seed[j], src[j])
				dirty[j] = srcAllDirty || (srcDirty != nil && srcDirty[j])
			}
		}
	}

	a.fs = nfs
	a.full, a.prefix = full, prefix
	a.entryBase, a.nEntries = entryBase, nEntries
	if a.topo != nil {
		a.topo = a.topo.withFlowUpdated(i, nfs.Flows[i].Path)
	}
	a.resetSmaxState()
	a.pendingSeed, a.pendingDirty = seed, dirty
	if tr := a.opt.Tracer; tr != nil {
		emitDelta(tr, "update", nfs.Flows[i].Name, warm, dirty)
	}
	return nil
}
