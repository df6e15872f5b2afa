package trajectory

import (
	"trajan/internal/model"
)

// This file is the slab layer of the flattened fixpoint core (DESIGN.md
// §6): a dense, map-free mirror of the flow-set topology, a chunked
// arena the SoA view caches carve their slices from, and the flat
// backing layout of the Smax tables the sweeps index by global entry
// id. Everything here is engine-internal — the reference path
// (reference.go / bound.go) keeps using the model-level map lookups, so
// the differential tests cross-check the dense computations against the
// originals on every fuzzed flow set.

// denseTopo is a dense-index mirror of the flow set's topology: every
// distinct node gets a dense id in [0, nNodes), pos[i][d] is the path
// position of dense node d on flow i (-1 when absent), and dpath[i][k]
// is the dense id of the k-th node on flow i's path. Both prefix
// relations and intersection tests become pure array scans — the
// map-heavy FlowSet.PrefixRelation was the dominant cost of cold view
// construction (≈40% of flows128 CPU before the slab layer).
//
// A topo is immutable once built: the delta constructors below share
// rows copy-on-write, so the state a mutation replaced and WhatIf forks
// alias it safely. nodeOf is only consulted at (re)build time, never on
// a hot path.
type denseTopo struct {
	nNodes int
	nodeOf map[model.NodeID]int32
	pos    [][]int32 // pos[i][d]: position of dense node d on flow i, -1 if absent
	dpath  [][]int32 // dpath[i][k]: dense id of Flows[i].Path[k]
}

// buildTopo constructs the dense mirror for a flow set. Dense ids are
// assigned in first-appearance order over the flows' paths, so the
// construction is deterministic.
func buildTopo(fs *model.FlowSet) *denseTopo {
	n := fs.N()
	tp := &denseTopo{nodeOf: make(map[model.NodeID]int32)}
	tp.dpath = make([][]int32, n)
	total := 0
	for _, f := range fs.Flows {
		total += len(f.Path)
	}
	dback := make([]int32, total)
	off := 0
	for i, f := range fs.Flows {
		row := dback[off : off+len(f.Path) : off+len(f.Path)]
		off += len(f.Path)
		for k, h := range f.Path {
			d, ok := tp.nodeOf[h]
			if !ok {
				d = int32(len(tp.nodeOf))
				tp.nodeOf[h] = d
			}
			row[k] = d
		}
		tp.dpath[i] = row
	}
	tp.nNodes = len(tp.nodeOf)
	tp.pos = make([][]int32, n)
	pback := make([]int32, n*tp.nNodes)
	for i := range pback {
		pback[i] = -1
	}
	for i := range fs.Flows {
		row := pback[i*tp.nNodes : (i+1)*tp.nNodes : (i+1)*tp.nNodes]
		for k, d := range tp.dpath[i] {
			row[d] = int32(k)
		}
		tp.pos[i] = row
	}
	return tp
}

// rowFor builds the pos/dpath rows of one new path against the existing
// dense node universe. ok is false when the path visits a node the topo
// has never seen — the caller then rebuilds from scratch, because the
// shared pos rows of the other flows are sized to the old universe.
func (tp *denseTopo) rowFor(path model.Path) (prow, drow []int32, ok bool) {
	drow = make([]int32, len(path))
	for k, h := range path {
		d, known := tp.nodeOf[h]
		if !known {
			return nil, nil, false
		}
		drow[k] = d
	}
	prow = make([]int32, tp.nNodes)
	for d := range prow {
		prow[d] = -1
	}
	for k, d := range drow {
		prow[d] = int32(k)
	}
	return prow, drow, true
}

// withFlowAdded returns a topo for the flow set with path appended, or
// nil when the path introduces new nodes (rebuild lazily). Existing
// rows are shared — the receiver stays valid for the state the add
// replaced, which is its undo.
func (tp *denseTopo) withFlowAdded(path model.Path) *denseTopo {
	prow, drow, ok := tp.rowFor(path)
	if !ok {
		return nil
	}
	nt := &denseTopo{nNodes: tp.nNodes, nodeOf: tp.nodeOf}
	nt.pos = append(append(make([][]int32, 0, len(tp.pos)+1), tp.pos...), prow)
	nt.dpath = append(append(make([][]int32, 0, len(tp.dpath)+1), tp.dpath...), drow)
	return nt
}

// withFlowRemoved returns a topo without flow i's rows. Dense ids of a
// node only the removed flow visited stay allocated — they are simply
// never indexed again, which keeps every shared row valid.
func (tp *denseTopo) withFlowRemoved(i int) *denseTopo {
	nt := &denseTopo{nNodes: tp.nNodes, nodeOf: tp.nodeOf}
	nt.pos = append(append(make([][]int32, 0, len(tp.pos)-1), tp.pos[:i]...), tp.pos[i+1:]...)
	nt.dpath = append(append(make([][]int32, 0, len(tp.dpath)-1), tp.dpath[:i]...), tp.dpath[i+1:]...)
	return nt
}

// withFlowUpdated returns a topo with flow i's rows replaced, or nil
// when the new path introduces new nodes.
func (tp *denseTopo) withFlowUpdated(i int, path model.Path) *denseTopo {
	prow, drow, ok := tp.rowFor(path)
	if !ok {
		return nil
	}
	nt := &denseTopo{nNodes: tp.nNodes, nodeOf: tp.nodeOf}
	nt.pos = append([][]int32(nil), tp.pos...)
	nt.dpath = append([][]int32(nil), tp.dpath...)
	nt.pos[i], nt.dpath[i] = prow, drow
	return nt
}

func growN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slabArena hands out exact-size slices carved from chunked backing
// arrays. The arena object holds only the current, partially filled
// chunk of each element type: a full chunk is referenced exclusively by
// the view slices carved from it, so dropping the views (a delta
// mutation rebuilding a neighborhood, an abandoned WhatIf fork) lets
// the garbage collector reclaim the chunk — churn workloads do not
// accumulate dead slabs. Carved slices use full-capacity expressions,
// so no append on one view can bleed into the next.
type slabArena struct {
	times []model.Time
	ints  []int32
	bools []bool
	views []viewCache
}

// arenaChunk is the element count of a fresh chunk; requests larger
// than a chunk get a dedicated allocation of their exact size.
const arenaChunk = 4096

func arenaSlice[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*buf)+n > cap(*buf) {
		c := arenaChunk
		if n > c {
			c = n
		}
		*buf = make([]T, 0, c)
	}
	l := len(*buf)
	s := (*buf)[l : l+n : l+n]
	*buf = (*buf)[:l+n]
	return s
}

// arenaClone returns a copy of s carved from buf.
func arenaClone[T any](buf *[]T, s []T) []T {
	c := arenaSlice(buf, len(s))
	copy(c, s)
	return c
}

// newView allocates one viewCache from the arena's struct chunk. The
// returned pointer is stable: chunks are appended within capacity only.
func (ar *slabArena) newView() *viewCache {
	if len(ar.views) == cap(ar.views) {
		ar.views = make([]viewCache, 0, 64)
	}
	ar.views = append(ar.views, viewCache{})
	return &ar.views[len(ar.views)-1]
}

// newSmaxTableFlat allocates an Smax table whose rows alias one flat
// backing slice, laid out in entry-id order: flat[entryBase[i]+k] ==
// rows[i][k]. The sweeps gather A offsets straight from the flat slice
// by precomputed global entry ids; the row view keeps every existing
// consumer (arrival-bound copies, delta seeding, the reference path's
// at()) working unchanged.
func newSmaxTableFlat(fs *model.FlowSet) (smaxTable, []model.Time) {
	t := make(smaxTable, fs.N())
	total := 0
	for _, f := range fs.Flows {
		total += len(f.Path)
	}
	flat := make([]model.Time, total)
	off := 0
	for i, f := range fs.Flows {
		t[i] = flat[off : off+len(f.Path) : off+len(f.Path)]
		off += len(f.Path)
	}
	return t, flat
}

// buildScratch is one view's build state inside buildViews: the
// incremental M-term/slow-node per-node extrema and the staged read
// set. Reused across builds, so steady-state churn builds allocate only
// the arena-carved result slices.
type buildScratch struct {
	// minSD/maxSD[m]: minimum/maximum same-direction cost at the m-th
	// view-path node among the flow itself and the same-direction
	// interferers absorbed so far. minSD feeds the M terms, maxSD the
	// slow-node residue; both are maintained incrementally (O(plen) per
	// same-direction interferer) instead of the reference's O(plen·ni)
	// rescan per interferer.
	minSD []model.Time
	maxSD []model.Time
	// mPre[k] is the saturating prefix fold Σ_{m<k}(minSD[m]+Lmin) and
	// mSat[k] its sticky-overflow state — exactly the value and flag the
	// reference's mTerm fold produces for a query at position k. Both
	// are recomputed lazily (mDirty) when minSD changed.
	mPre   []model.Time
	mSat   []bool
	mDirty bool

	// reads stages the view's deduped Smax entry ids in first-occurrence
	// order (multiScratch.addReads).
	reads []int32
}

// reset prepares the state for one view build: read staging emptied,
// the per-node extrema seeded with the view's own costs.
func (sc *buildScratch) reset(plen int, cost []model.Time) {
	sc.reads = sc.reads[:0]

	sc.minSD = growTimes(sc.minSD, plen)
	sc.maxSD = growTimes(sc.maxSD, plen)
	sc.mPre = growTimes(sc.mPre, plen)
	if cap(sc.mSat) < plen {
		sc.mSat = make([]bool, plen)
	}
	sc.mSat = sc.mSat[:plen]
	copy(sc.minSD, cost)
	copy(sc.maxSD, cost)
	sc.mDirty = true
}

// multiScratch is the working state of the view builder
// (Analyzer.buildViews): one interferer sweep fills EVERY missing view
// of a flow at once, so the per-pair anchors (first-crossing
// positions, running charge maxima, jitter-minus-Smin offsets) are
// computed exactly once per pair instead of once per (pair, plen).
//
//   - minKi[j] is the activation index of interferer j: j appears in
//     the plen-p view iff p > minKi[j] (the smallest i-position shared
//     with Pj); -1 when the paths are disjoint. hist[m] counts the
//     interferers activating at m, so per-view interferer counts are
//     prefix sums — the SoA arrays carve at exact size before the fill.
//   - st[p-1] is the plen-p view's private build state; vcs[p-1] the
//     view under construction (nil when already built) and xs[p-1] its
//     next interferer slot.
//   - seen dedups the interleaved read sets: words = ⌈L/64⌉ words per
//     i-position, one bit per prefix length.
//   - idxAt/maxAt/crow are the per-pair buckets: the first j-order
//     index and the maximum C_j hitting each i-position, and C_j at
//     each i-position (0 = absent; costs are validated positive), which
//     doubles as the same-direction absorb row.
type multiScratch struct {
	minKi []int32
	hist  []int32
	st    []buildScratch
	vcs   []*viewCache
	xs    []int32

	idxAt []int32
	maxAt []model.Time
	crow  []model.Time

	seen  []uint64
	words int
}

// addReads stages one interferer's reads on the plen-p view: the flow's
// own entry iEnt (at i-position fji) unless an earlier interferer of
// the view already read it, then the interferer's entry jEnt, which
// lies in its own flow's entry range and so never repeats. The result
// is the first-occurrence dedup of the (iEnt, jEnt) sequence.
func (ms *multiScratch) addReads(st *buildScratch, p int, fji, iEnt, jEnt int32) {
	w, b := int(fji)*ms.words+(p-1)/64, uint64(1)<<uint((p-1)%64)
	if ms.seen[w]&b == 0 {
		ms.seen[w] |= b
		st.reads = append(st.reads, iEnt)
	}
	st.reads = append(st.reads, jEnt)
}

// absorbSameDir folds one same-direction interferer's per-node costs
// into the extrema, reading its crow (cc = C_j at the m-th view node,
// 0 when j does not visit it — a 0 behaves exactly like an absent node
// under both guards since costs are validated positive). The minSD guard
// (cc > 0, strictly smaller) mirrors the reference mTerm's; maxSD takes
// any strictly larger visiting cost, like the reference chooseSlow scan.
func (sc *buildScratch) absorbSameDir(row []model.Time, plen int) {
	for m := 0; m < plen; m++ {
		cc := row[m]
		if cc == 0 {
			continue
		}
		if cc < sc.minSD[m] {
			sc.minSD[m] = cc
			sc.mDirty = true
		}
		if cc > sc.maxSD[m] {
			sc.maxSD[m] = cc
		}
	}
}

// mTermAt returns M up to (exclusive) position k of the view path under
// the current minSD state, with the fold's sticky-overflow flag ORed
// into sat — value and flag are those of the reference's from-scratch
// fold at the same interferer state, because the prefix recomputation
// below executes the identical AddSat operand sequence.
func (sc *buildScratch) mTermAt(lmin model.Time, k int, sat *bool) model.Time {
	if sc.mDirty {
		var s model.Time
		var sflag bool
		for m := range sc.minSD {
			sc.mPre[m] = s
			sc.mSat[m] = sflag
			s = model.AddSat(s, model.AddSat(sc.minSD[m], lmin, &sflag), &sflag)
		}
		sc.mDirty = false
	}
	if sc.mSat[k] {
		*sat = true
	}
	return sc.mPre[k]
}
