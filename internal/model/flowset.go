package model

import (
	"sort"
	"sync"
)

// FlowSet bundles a network with a validated set of flows and
// precomputes the pairwise path relations that every analysis consumes.
type FlowSet struct {
	Net   Network
	Flows []*Flow

	// rel[i][j] is the relation of interferer j against flow i's path.
	// Built lazily (ensureRel): the incremental analysis engine never
	// reads it — it derives prefix relations from nodeIdx — so the
	// copy-on-write mutation constructors (delta.go) can skip the O(n²)
	// table entirely and only reference-path consumers pay for it.
	rel     [][]PathRelation
	relOnce sync.Once
	// nodeIdx[i][h] is the position of node h on flow i's path; absent
	// nodes have no entry. It backs the O(1) PathIndex/CostOf lookups
	// the analysis hot paths rely on.
	nodeIdx []map[NodeID]int
	// sminPre[i][k] is Smin^h_i for h = Flows[i].Path[k]: the prefix sum
	// of upstream processing plus Lmin per link.
	sminPre [][]Time

	// The node→flows index (ensureNodes), built lazily like rel so the
	// copy-on-write sets of the warm admission path never pay for it:
	// nodes is the sorted node list, nodeSlot maps a node to its
	// position there, and the flows visiting nodes[s] are
	// nodeFlows[nodeOff[s]:nodeOff[s+1]] in ascending index order (CSR
	// layout: one flat slice, no per-node allocations). nodeUtil[s] is
	// TotalUtilizationAt(nodes[s]).
	nodes     []NodeID
	nodeSlot  map[NodeID]int32
	nodeOff   []int32
	nodeFlows []int
	nodeUtil  []float64
	nodeOnce  sync.Once

	// comp labels each flow with its interference component
	// (Components), built lazily from the node index.
	comp     []int32
	ncomp    int
	compOnce sync.Once
}

// derivedRow computes one flow's node index and Smin prefix row.
func (fs *FlowSet) derivedRow(f *Flow) (map[NodeID]int, []Time) {
	idx := make(map[NodeID]int, len(f.Path))
	pre := make([]Time, len(f.Path))
	var acc Time
	var sat bool
	for k, h := range f.Path {
		idx[h] = k
		pre[k] = acc
		// Saturating: a prefix sum that leaves the finite domain
		// clamps to TimeInfinity, and every consumer threading it
		// through the saturating ops inherits the sticky flag (the
		// bound then degrades to an Unbounded verdict, never to a
		// wrapped number).
		acc = AddSat(acc, AddSat(f.Cost[k], fs.Net.Lmin, &sat), &sat)
	}
	return idx, pre
}

// initDerived builds the per-flow node indexes and Smin prefix sums.
// Shared by both constructors; the pairwise relation table is deferred
// to ensureRel.
func (fs *FlowSet) initDerived() {
	fs.nodeIdx = make([]map[NodeID]int, len(fs.Flows))
	fs.sminPre = make([][]Time, len(fs.Flows))
	for i, f := range fs.Flows {
		fs.nodeIdx[i], fs.sminPre[i] = fs.derivedRow(f)
	}
}

// ensureRel builds the pairwise relation table on first use. Safe for
// concurrent readers: analyses fan path views out across goroutines.
func (fs *FlowSet) ensureRel() {
	fs.relOnce.Do(func() {
		fs.rel = make([][]PathRelation, len(fs.Flows))
		for i, fi := range fs.Flows {
			fs.rel[i] = make([]PathRelation, len(fs.Flows))
			for j, fj := range fs.Flows {
				if i == j {
					continue
				}
				fs.rel[i][j] = Relate(fi, fj)
			}
		}
	})
}

// ensureNodes builds the node→flows index on first use. Safe for
// concurrent readers, like ensureRel.
func (fs *FlowSet) ensureNodes() {
	fs.nodeOnce.Do(func() {
		slot := make(map[NodeID]int32)
		var nodes []NodeID
		for _, f := range fs.Flows {
			for _, h := range f.Path {
				if _, ok := slot[h]; !ok {
					slot[h] = 0
					nodes = append(nodes, h)
				}
			}
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		off := make([]int32, len(nodes)+1)
		for s, h := range nodes {
			slot[h] = int32(s)
		}
		for _, f := range fs.Flows {
			for _, h := range f.Path {
				off[slot[h]+1]++
			}
		}
		for s := range nodes {
			off[s+1] += off[s]
		}
		// Filling flow by flow keeps each node's run in ascending flow
		// order, and accumulates each node's utilization in that same
		// order, so the float sums are the per-call scan's bit for bit.
		flows := make([]int, off[len(nodes)])
		util := make([]float64, len(nodes))
		next := make([]int32, len(nodes))
		copy(next, off)
		for i, f := range fs.Flows {
			for k, h := range f.Path {
				s := slot[h]
				flows[next[s]] = i
				next[s]++
				util[s] += float64(f.Cost[k]) / float64(f.Period)
			}
		}
		fs.nodes, fs.nodeSlot, fs.nodeOff, fs.nodeFlows, fs.nodeUtil = nodes, slot, off, flows, util
	})
}

// NewFlowSet validates the network and flows, verifies Assumption 1
// (returning an error listing the violations if it fails — call
// EnforceAssumption1 first to split offenders), checks name uniqueness,
// and precomputes all pairwise relations.
func NewFlowSet(net Network, flows []*Flow) (*FlowSet, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, Errorf(ErrInvalidConfig, "flowset: no flows")
	}
	names := make(map[string]struct{}, len(flows))
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		if _, dup := names[f.Name]; dup {
			return nil, Errorf(ErrInvalidConfig, "flowset: duplicate flow name %q", f.Name)
		}
		names[f.Name] = struct{}{}
	}
	if v := CheckAssumption1(flows); len(v) > 0 {
		return nil, Errorf(ErrInvalidConfig, "flowset: assumption 1 violated (%d pairs), e.g. %s; apply EnforceAssumption1", len(v), v[0])
	}
	fs := &FlowSet{Net: net, Flows: flows}
	fs.initDerived()
	return fs, nil
}

// NewFlowSetLax builds a flow set WITHOUT the Assumption-1 check. The
// discrete-event simulator does not depend on the assumption (it is an
// analysis device), so simulation-only callers may run the original,
// unsplit flows; the analytical packages must be given the split set
// from EnforceAssumption1 instead.
func NewFlowSetLax(net Network, flows []*Flow) (*FlowSet, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, Errorf(ErrInvalidConfig, "flowset: no flows")
	}
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	fs := &FlowSet{Net: net, Flows: flows}
	fs.initDerived()
	return fs, nil
}

// MustNewFlowSet is NewFlowSet panicking on error; for tests and
// examples with known-good literals.
func MustNewFlowSet(net Network, flows []*Flow) *FlowSet {
	fs, err := NewFlowSet(net, flows)
	if err != nil {
		panic(err)
	}
	return fs
}

// N returns the number of flows.
func (fs *FlowSet) N() int { return len(fs.Flows) }

// Relation returns the precomputed relation of interferer j against
// flow i's path.
func (fs *FlowSet) Relation(i, j int) PathRelation {
	fs.ensureRel()
	return fs.rel[i][j]
}

// PathIndex returns the position of node h on flow i's path, or -1 if
// the flow does not visit h. O(1), unlike Path.Index.
func (fs *FlowSet) PathIndex(i int, h NodeID) int {
	if k, ok := fs.nodeIdx[i][h]; ok {
		return k
	}
	return -1
}

// CostOf returns C^h_i, zero when flow i does not visit h. O(1),
// unlike Flow.CostAt.
func (fs *FlowSet) CostOf(i int, h NodeID) Time {
	if k, ok := fs.nodeIdx[i][h]; ok {
		return fs.Flows[i].Cost[k]
	}
	return 0
}

// PrefixRelation computes the relation of flow j against the prefix of
// flow i's path of length plen (the first plen nodes), equivalent to
// RelateToPath(Flows[i].Path[:plen], Flows[j]) except that the Shared
// node list is left nil: callers on the analysis hot path need only the
// anchors and C^{slow_{j,i}}_j, and skipping Shared keeps the lookup
// allocation-free. For plen == len(Path) the anchors equal Relation's.
func (fs *FlowSet) PrefixRelation(i, plen, j int) PathRelation {
	var r PathRelation
	idxI := fs.nodeIdx[i]
	fj := fs.Flows[j]
	// first/last_{j,i} and slow_{j,i}: scan Pj in j's traversal order
	// for nodes inside the prefix.
	for k, h := range fj.Path {
		ki, ok := idxI[h]
		if !ok || ki >= plen {
			continue
		}
		if !r.Intersects {
			r.Intersects = true
			r.FirstJI = h
			r.SlowJI, r.CSlowJI = h, fj.Cost[k]
		} else if fj.Cost[k] > r.CSlowJI {
			r.SlowJI, r.CSlowJI = h, fj.Cost[k]
		}
		r.LastJI = h
	}
	if !r.Intersects {
		return r
	}
	// first/last_{i,j}: scan the prefix in i's traversal order for nodes
	// of Pj.
	idxJ := fs.nodeIdx[j]
	pi := fs.Flows[i].Path[:plen]
	for _, h := range pi {
		if _, ok := idxJ[h]; ok {
			r.FirstIJ = h
			break
		}
	}
	for k := plen - 1; k >= 0; k-- {
		if _, ok := idxJ[pi[k]]; ok {
			r.LastIJ = pi[k]
			break
		}
	}
	r.SameDirection = r.FirstJI == r.FirstIJ
	return r
}

// Interferers returns the indices of flows whose paths intersect flow
// i's path (excluding i itself).
func (fs *FlowSet) Interferers(i int) []int {
	fs.ensureRel()
	var out []int
	for j := range fs.Flows {
		if j != i && fs.rel[i][j].Intersects {
			out = append(out, j)
		}
	}
	return out
}

// Nodes returns the sorted set of all node identifiers appearing on any
// path. The slice is shared by every caller and must not be modified.
func (fs *FlowSet) Nodes() []NodeID {
	fs.ensureNodes()
	return fs.nodes[:len(fs.nodes):len(fs.nodes)]
}

// FlowsAt returns the indices of flows visiting node h, in ascending
// order (nil when no flow does). The slice is shared by every caller and
// must not be modified; its capacity is clipped, so an append copies.
func (fs *FlowSet) FlowsAt(h NodeID) []int {
	fs.ensureNodes()
	s, ok := fs.nodeSlot[h]
	if !ok {
		return nil
	}
	lo, hi := fs.nodeOff[s], fs.nodeOff[s+1]
	return fs.nodeFlows[lo:hi:hi]
}

// Components labels each flow with its interference component: the
// classes of the transitive "shares a node" relation. Flows of
// different components never meet at a node, so every analysis and
// the simulator may treat each component as an independent flow set.
// Components are numbered in order of their smallest flow index; n is
// their count. The labelling is built on first use, is safe for
// concurrent callers, and comp is shared by all of them: it must not
// be modified.
func (fs *FlowSet) Components() (comp []int32, n int) {
	fs.compOnce.Do(func() { fs.comp, fs.ncomp = fs.labelComponents() })
	return fs.comp[:len(fs.comp):len(fs.comp)], fs.ncomp
}

// labelComponents runs union-find over the node index.
func (fs *FlowSet) labelComponents() (comp []int32, n int) {
	parent := make([]int32, fs.N())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	fs.ensureNodes()
	for s := range fs.nodes {
		at := fs.nodeFlows[fs.nodeOff[s]:fs.nodeOff[s+1]]
		r := find(int32(at[0]))
		for _, j := range at[1:] {
			// The smaller root wins, so a root is its class's smallest
			// flow index.
			switch rj := find(int32(j)); {
			case rj < r:
				parent[r], r = rj, rj
			case rj > r:
				parent[rj] = r
			}
		}
	}
	comp = make([]int32, len(parent))
	for i := range parent {
		if r := find(int32(i)); r == int32(i) {
			comp[i] = int32(n)
			n++
		} else {
			comp[i] = comp[r]
		}
	}
	return comp, n
}

// Smin returns Smin^h_i: the minimum time for a packet of flow i to go
// from its source to (its arrival at) node h — all processing on the
// nodes before h plus Lmin per link, with no queueing. Smin at the
// source node is 0. A node not on flow i's path is an ErrInvalidConfig
// error — node arguments typically come straight from user input.
// Hot-path callers that already hold a validated path index should use
// SminAt instead.
func (fs *FlowSet) Smin(i int, h NodeID) (Time, error) {
	k, ok := fs.nodeIdx[i][h]
	if !ok {
		return 0, Errorf(ErrInvalidConfig, "model.Smin: node %d not on path of flow %q", h, fs.Flows[i].Name)
	}
	return fs.sminPre[i][k], nil
}

// SminAt returns Smin at the k-th node of flow i's path. The index must
// be a valid path position (as produced by PathIndex or a path
// iteration); out-of-range indexes panic via the slice bounds check —
// a documented internal invariant, not a user-input condition.
func (fs *FlowSet) SminAt(i, k int) Time {
	return fs.sminPre[i][k]
}

// MinArrival is Smin plus the flow-i packet's processing at h: the
// earliest completion at node h relative to release. Like Smin it
// reports ErrInvalidConfig for nodes off the flow's path.
func (fs *FlowSet) MinArrival(i int, h NodeID) (Time, error) {
	k, ok := fs.nodeIdx[i][h]
	if !ok {
		return 0, Errorf(ErrInvalidConfig, "model.MinArrival: node %d not on path of flow %q", h, fs.Flows[i].Name)
	}
	var sat bool
	return AddSat(fs.sminPre[i][k], fs.Flows[i].Cost[k], &sat), nil
}

// M computes M^h_i from the paper's notation list:
//
//	M^h_i = Σ_{h'=first_i}^{pre_i(h)} ( min_{j same-direction, h'∈Pj} C^{h'}_j + Lmin )
//
// the earliest possible start of the busy-period chain at node h: at
// every earlier node of Pi at least one packet of some same-direction
// flow must be processed before the chain can advance. The paper's
// literal "C^{h'}_j = 0 if h'∉Pj" convention would make the minimum
// degenerate to 0 whenever any same-direction flow skips h'; since M is
// an *earliest arrival* lower bound built from packets that actually
// traverse h', the minimum here ranges over flows that visit h'.
// The flow i itself always qualifies (first_{i,i} = first_{i,i}).
// A node not on flow i's path is an ErrInvalidConfig error.
func (fs *FlowSet) M(i int, h NodeID) (Time, error) {
	f := fs.Flows[i]
	k, ok := fs.nodeIdx[i][h]
	if !ok {
		return 0, Errorf(ErrInvalidConfig, "model.M: node %d not on path of flow %q", h, f.Name)
	}
	fs.ensureRel()
	var s Time
	var sat bool
	for m := 0; m < k; m++ {
		hp := f.Path[m]
		minC := f.Cost[m] // flow i itself
		for j := range fs.Flows {
			if j == i {
				continue
			}
			r := fs.rel[i][j]
			if !r.Intersects || !r.SameDirection {
				continue
			}
			if c := fs.CostOf(j, hp); c > 0 && c < minC {
				minC = c
			}
		}
		s = AddSat(s, AddSat(minC, fs.Net.Lmin, &sat), &sat)
	}
	return s, nil
}

// MaxSameDirCost returns max over flows j with first_{j,i} = first_{i,j}
// (same direction as flow i, including i itself) of C^h_j — the
// "counted-twice packet" term of Lemma 2 at node h.
func (fs *FlowSet) MaxSameDirCost(i int, h NodeID) Time {
	fs.ensureRel()
	maxC := fs.CostOf(i, h)
	for j := range fs.Flows {
		if j == i {
			continue
		}
		r := fs.rel[i][j]
		if !r.Intersects || !r.SameDirection {
			continue
		}
		if c := fs.CostOf(j, h); c > maxC {
			maxC = c
		}
	}
	return maxC
}

// TotalUtilizationAt returns Σ_{j: h∈Pj} C^h_j / T_j as a float, the
// long-run load offered to node h. Values above 1 make the node's busy
// periods unbounded.
func (fs *FlowSet) TotalUtilizationAt(h NodeID) float64 {
	fs.ensureNodes()
	if s, ok := fs.nodeSlot[h]; ok {
		return fs.nodeUtil[s]
	}
	return 0
}

// MaxUtilization returns the highest per-node utilization across the
// network — the stability margin of the flow set.
func (fs *FlowSet) MaxUtilization() float64 {
	fs.ensureNodes()
	var u float64
	for _, v := range fs.nodeUtil {
		if v > u {
			u = v
		}
	}
	return u
}
