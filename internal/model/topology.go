package model

import (
	"slices"
	"sort"
)

// Topology is the network graph: directed links between nodes. The
// flow model needs only paths, but real deployments derive paths from
// a topology — the paper's footnote 1 ("we can use source routing or
// MPLS") presumes one. Topology validates that paths follow existing
// links and computes shortest routes for the workload generators.
type Topology struct {
	adj map[NodeID][]NodeID
}

// NewTopology creates an empty graph.
func NewTopology() *Topology {
	return &Topology{adj: make(map[NodeID][]NodeID)}
}

// AddLink adds a directed link u→v (idempotent). It panics on a
// self-link: AddLink is the literal-construction helper for topologies
// written out in code, where u == v is a programming error, not user
// input. Code paths that build a topology from external input
// (generators with computed indices, CLI/config loaders) must use
// AddLinkChecked, which degrades the same violation to a typed
// ErrInvalidConfig.
func (t *Topology) AddLink(u, v NodeID) {
	if err := t.AddLinkChecked(u, v); err != nil {
		panic(err.Error())
	}
}

// AddLinkChecked adds a directed link u→v (idempotent), rejecting a
// self-link with an ErrInvalidConfig error instead of panicking — the
// loader-facing counterpart of AddLink.
func (t *Topology) AddLinkChecked(u, v NodeID) error {
	if u == v {
		return Errorf(ErrInvalidConfig, "model.Topology: self-link at node %d", u)
	}
	for _, w := range t.adj[u] {
		if w == v {
			return nil
		}
	}
	t.adj[u] = append(t.adj[u], v)
	if _, ok := t.adj[v]; !ok {
		t.adj[v] = nil
	}
	return nil
}

// AddBidirectional adds u→v and v→u.
func (t *Topology) AddBidirectional(u, v NodeID) {
	t.AddLink(u, v)
	t.AddLink(v, u)
}

// HasLink reports whether u→v exists.
func (t *Topology) HasLink(u, v NodeID) bool {
	for _, w := range t.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Nodes returns the sorted node set.
func (t *Topology) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.adj))
	for n := range t.adj {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Neighbors returns u's successors in deterministic order.
func (t *Topology) Neighbors(u NodeID) []NodeID {
	out := append([]NodeID(nil), t.adj[u]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ValidatePath checks that a path exists edge by edge. Violations are
// classified ErrInvalidConfig — the path came from user input.
func (t *Topology) ValidatePath(p Path) error {
	if len(p) == 0 {
		return Errorf(ErrInvalidConfig, "topology: empty path")
	}
	if _, ok := t.adj[p[0]]; !ok {
		return Errorf(ErrInvalidConfig, "topology: unknown node %d", p[0])
	}
	for k := 1; k < len(p); k++ {
		if !t.HasLink(p[k-1], p[k]) {
			return Errorf(ErrInvalidConfig, "topology: no link %d→%d", p[k-1], p[k])
		}
	}
	return nil
}

// ValidateFlows checks every flow's path against the graph.
func (t *Topology) ValidateFlows(flows []*Flow) error {
	for _, f := range flows {
		if err := t.ValidatePath(f.Path); err != nil {
			return Errorf(ErrInvalidConfig, "flow %q: %w", f.Name, err)
		}
	}
	return nil
}

// Route returns a shortest path (hop count) from src to dst using BFS
// with deterministic neighbor order, or an error when unreachable —
// the "source routing" of the paper's footnote.
func (t *Topology) Route(src, dst NodeID) (Path, error) {
	if _, ok := t.adj[src]; !ok {
		return nil, Errorf(ErrInvalidConfig, "topology: unknown source %d", src)
	}
	if _, ok := t.adj[dst]; !ok {
		return nil, Errorf(ErrInvalidConfig, "topology: unknown destination %d", dst)
	}
	if src == dst {
		return Path{src}, nil
	}
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if _, seen := prev[v]; seen {
				continue
			}
			prev[v] = u
			if v == dst {
				var rev Path
				for n := dst; ; n = prev[n] {
					rev = append(rev, n)
					if n == src {
						break
					}
				}
				p := make(Path, len(rev))
				for i := range rev {
					p[i] = rev[len(rev)-1-i]
				}
				return p, nil
			}
			queue = append(queue, v)
		}
	}
	return nil, Errorf(ErrInvalidConfig, "topology: node %d unreachable from %d", dst, src)
}

// ComparePaths orders paths by hop count, then lexicographically by
// node identifier — the total order the k-shortest enumeration reports
// its results in. It returns <0, 0 or >0 in the manner of bytes.Compare.
func ComparePaths(a, b Path) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// KShortestPaths enumerates up to k loop-free paths from src to dst in
// increasing (hop count, lexicographic) order — Yen's algorithm over
// the same graph Route searches. The enumeration is deterministic: the
// shortest-path subroutine always returns the lexicographically
// smallest shortest path, so for a given graph the returned slice is a
// pure function of (src, dst, k). Fewer than k paths are returned when
// the graph has no more loop-free alternatives; errors are classified
// ErrInvalidConfig (bad k, unknown nodes, unreachable destination).
//
// The search runs on a dense mirror of the graph built for the call
// (kspGraph), so nothing is cached on the Topology and AddLink after a
// call needs no invalidation.
func (t *Topology) KShortestPaths(src, dst NodeID, k int) ([]Path, error) {
	if k < 1 {
		return nil, Errorf(ErrInvalidConfig, "topology: k-shortest paths needs k ≥ 1, got %d", k)
	}
	if _, ok := t.adj[src]; !ok {
		return nil, Errorf(ErrInvalidConfig, "topology: unknown source %d", src)
	}
	if _, ok := t.adj[dst]; !ok {
		return nil, Errorf(ErrInvalidConfig, "topology: unknown destination %d", dst)
	}
	g := t.dense()
	s, d := g.index(src), g.index(dst)
	first, ok := g.lexRoute(s, d, -1)
	if !ok {
		return nil, Errorf(ErrInvalidConfig, "topology: node %d unreachable from %d", dst, src)
	}
	shortest := [][]int32{first}
	var candidates [][]int32
	for len(shortest) < k {
		prev := shortest[len(shortest)-1]
		// Deviate from every spur node of the previously accepted path.
		// Every banned edge leaves the spur node: it is the next hop of
		// an accepted path sharing the root.
		for i := 0; i+1 < len(prev); i++ {
			spur := prev[i]
			root := prev[:i+1]
			for _, p := range shortest {
				if len(p) > i+1 && slices.Equal(p[:i+1], root) {
					g.bannedNext[p[i+1]] = true
				}
			}
			for _, n := range root[:i] {
				g.bannedNode[n] = true
			}
			spurPath, ok := g.lexRoute(spur, d, spur)
			clear(g.bannedNext)
			clear(g.bannedNode)
			if !ok {
				continue
			}
			total := append(append(make([]int32, 0, i+len(spurPath)), root...), spurPath[1:]...)
			same := func(q []int32) bool { return slices.Equal(q, total) }
			if !slices.ContainsFunc(shortest, same) && !slices.ContainsFunc(candidates, same) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		slices.SortFunc(candidates, compareIdxPaths)
		shortest = append(shortest, candidates[0])
		candidates = candidates[1:]
	}
	// The incremental selection already yields non-decreasing hop counts;
	// the final sort additionally pins the lexicographic order among
	// equal-length paths, making the output exactly the ComparePaths
	// order regardless of discovery order.
	slices.SortFunc(shortest, compareIdxPaths)
	out := make([]Path, len(shortest))
	for j, p := range shortest {
		out[j] = make(Path, len(p))
		for x, n := range p {
			out[j][x] = g.ids[n]
		}
	}
	return out, nil
}

// kspGraph is a dense mirror of a Topology for one k-shortest-paths
// call: node n of the mirror is ids[n], ids sorted ascending, so
// index order is identifier order and ComparePaths carries over to
// index paths. Successor and predecessor lists are CSR slices, the
// successors ascending. bannedNode and bannedNext are the spur search's
// exclusions (nodes of the root, next hops out of the spur node); dist
// and queue are lexRoute's scratch.
type kspGraph struct {
	ids           []NodeID
	succOff, succ []int32
	predOff, pred []int32
	bannedNode    []bool
	bannedNext    []bool
	dist, queue   []int32
}

// dense builds the mirror.
func (t *Topology) dense() *kspGraph {
	n := len(t.adj)
	g := &kspGraph{ids: make([]NodeID, 0, n)}
	edges := 0
	for u, vs := range t.adj {
		g.ids = append(g.ids, u)
		edges += len(vs)
	}
	slices.Sort(g.ids)
	ints := make([]int32, 2*(n+1)+2*edges+2*n)
	g.succOff, ints = ints[:n+1], ints[n+1:]
	g.predOff, ints = ints[:n+1], ints[n+1:]
	g.succ, ints = ints[:0:edges], ints[edges:]
	g.pred, ints = ints[:edges], ints[edges:]
	g.dist, g.queue = ints[:n], ints[n:n]
	bools := make([]bool, 2*n)
	g.bannedNode, g.bannedNext = bools[:n], bools[n:]
	for i, u := range g.ids {
		start := len(g.succ)
		for _, v := range t.adj[u] {
			j := g.index(v)
			g.succ = append(g.succ, j)
			g.predOff[j+1]++
		}
		slices.Sort(g.succ[start:])
		g.succOff[i+1] = int32(len(g.succ))
	}
	for i := 1; i <= n; i++ {
		g.predOff[i] += g.predOff[i-1]
	}
	// Fill each node's predecessor run from its end backwards, using
	// dist as the cursor (it is scratch until lexRoute runs).
	fill := g.dist
	copy(fill, g.predOff[1:])
	for u := range g.ids {
		for _, v := range g.succ[g.succOff[u]:g.succOff[u+1]] {
			fill[v]--
			g.pred[fill[v]] = int32(u)
		}
	}
	return g
}

// index returns the mirror index of a node the topology has.
func (g *kspGraph) index(n NodeID) int32 {
	i, _ := slices.BinarySearch(g.ids, n)
	return int32(i)
}

// lexRoute returns the lexicographically smallest shortest path from
// src to dst that avoids the banned nodes and, out of node spur (-1 for
// none), the banned next hops; ok=false when no such path exists. It
// computes hop distances to dst by a reverse BFS (order-independent),
// then walks forward greedily taking the smallest admissible successor
// that stays on a shortest path.
func (g *kspGraph) lexRoute(src, dst, spur int32) ([]int32, bool) {
	if g.bannedNode[src] || g.bannedNode[dst] {
		return nil, false
	}
	if src == dst {
		return []int32{src}, true
	}
	dist := g.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := append(g.queue[:0], dst)
	for h := 0; h < len(queue); h++ {
		v := queue[h]
		for _, u := range g.pred[g.predOff[v]:g.predOff[v+1]] {
			if dist[u] >= 0 || g.bannedNode[u] || (u == spur && g.bannedNext[v]) {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	g.queue = queue
	d := dist[src]
	if d < 0 {
		return nil, false
	}
	p := make([]int32, 1, d+1)
	p[0] = src
	for u := src; u != dst; {
		next := int32(-1)
		for _, v := range g.succ[g.succOff[u]:g.succOff[u+1]] { // ascending: first hit is smallest
			if g.bannedNode[v] || (u == spur && g.bannedNext[v]) {
				continue
			}
			if dist[v] == d-1 {
				next = v
				break
			}
		}
		if next < 0 {
			return nil, false // unreachable: dist[src] guarantees a way out
		}
		p = append(p, next)
		u = next
		d--
	}
	return p, true
}

// compareIdxPaths is ComparePaths over mirror index paths.
func compareIdxPaths(a, b []int32) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// LineTopology builds the bidirectional line 0–1–…–(n-1).
func LineTopology(n int) *Topology {
	t := NewTopology()
	for i := 0; i+1 < n; i++ {
		t.AddBidirectional(NodeID(i), NodeID(i+1))
	}
	return t
}

// RingTopology builds the unidirectional cycle 0→1→…→(n-1)→0.
func RingTopology(n int) *Topology {
	t := NewTopology()
	for i := 0; i < n; i++ {
		t.AddLink(NodeID(i), NodeID((i+1)%n))
	}
	return t
}

// StarTopology builds hub 0 with bidirectional spokes to 1..n.
func StarTopology(leaves int) *Topology {
	t := NewTopology()
	for i := 1; i <= leaves; i++ {
		t.AddBidirectional(0, NodeID(i))
	}
	return t
}

// GridTopology builds a rows×cols bidirectional mesh; node (r,c) has
// identifier r·cols+c.
func GridTopology(rows, cols int) *Topology {
	t := NewTopology()
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.AddBidirectional(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				t.AddBidirectional(id(r, c), id(r+1, c))
			}
		}
	}
	return t
}

// PaperTopology reconstructs a graph consistent with the Section-5
// example: it contains exactly the links the five flows traverse.
func PaperTopology() *Topology {
	t := NewTopology()
	for _, f := range PaperExample().Flows {
		for k := 1; k < len(f.Path); k++ {
			t.AddLink(f.Path[k-1], f.Path[k])
		}
	}
	return t
}
