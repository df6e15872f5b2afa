package model_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// kspOracle is Yen's algorithm over maps, the straight-line reference
// the dense Topology.KShortestPaths must reproduce exactly. It reads
// the graph through the exported Nodes and Neighbors, once.
type kspOracle struct {
	nodes []model.NodeID
	nbrs  map[model.NodeID][]model.NodeID // sorted successors
}

func newKSPOracle(t *model.Topology) *kspOracle {
	o := &kspOracle{nodes: t.Nodes(), nbrs: make(map[model.NodeID][]model.NodeID)}
	for _, u := range o.nodes {
		o.nbrs[u] = t.Neighbors(u)
	}
	return o
}

// kShortest returns the paths in the order Yen's loop selects them.
// The selection for k is a prefix of the selection for any larger k,
// so sorting the first j entries by ComparePaths gives the result for
// k = j.
func (o *kspOracle) kShortest(src, dst model.NodeID, k int) []model.Path {
	first, ok := o.lexRoute(src, dst, nil, nil)
	if !ok {
		return nil
	}
	shortest := []model.Path{first}
	var candidates []model.Path
	for len(shortest) < k {
		prev := shortest[len(shortest)-1]
		for i := 0; i+1 < len(prev); i++ {
			spur := prev[i]
			root := prev[:i+1]
			bannedEdges := make(map[[2]model.NodeID]bool)
			for _, p := range shortest {
				if len(p) > i+1 && model.ComparePaths(p[:i+1], root) == 0 {
					bannedEdges[[2]model.NodeID{p[i], p[i+1]}] = true
				}
			}
			bannedNodes := make(map[model.NodeID]bool, i)
			for _, n := range root[:i] {
				bannedNodes[n] = true
			}
			spurPath, ok := o.lexRoute(spur, dst, bannedEdges, bannedNodes)
			if !ok {
				continue
			}
			total := append(append(model.Path{}, root...), spurPath[1:]...)
			if !containsPathOracle(shortest, total) && !containsPathOracle(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			return model.ComparePaths(candidates[a], candidates[b]) < 0
		})
		shortest = append(shortest, candidates[0])
		candidates = candidates[1:]
	}
	return shortest
}

func containsPathOracle(set []model.Path, p model.Path) bool {
	for _, q := range set {
		if model.ComparePaths(q, p) == 0 {
			return true
		}
	}
	return false
}

// lexRoute is the lexicographically smallest shortest path avoiding
// the banned edges and nodes: reverse BFS distances, then a greedy
// forward walk over sorted neighbours.
func (o *kspOracle) lexRoute(src, dst model.NodeID, bannedEdge map[[2]model.NodeID]bool, bannedNode map[model.NodeID]bool) (model.Path, bool) {
	if bannedNode[src] || bannedNode[dst] {
		return nil, false
	}
	if src == dst {
		return model.Path{src}, true
	}
	rev := make(map[model.NodeID][]model.NodeID)
	for _, u := range o.nodes {
		if bannedNode[u] {
			continue
		}
		for _, v := range o.nbrs[u] {
			if bannedNode[v] || bannedEdge[[2]model.NodeID{u, v}] {
				continue
			}
			rev[v] = append(rev[v], u)
		}
	}
	dist := map[model.NodeID]int{dst: 0}
	queue := []model.NodeID{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range rev[v] {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	d, ok := dist[src]
	if !ok {
		return nil, false
	}
	p := model.Path{src}
	for u := src; u != dst; {
		found := false
		for _, v := range o.nbrs[u] {
			if bannedNode[v] || bannedEdge[[2]model.NodeID{u, v}] {
				continue
			}
			if dv, ok := dist[v]; ok && dv == d-1 {
				p = append(p, v)
				u, found = v, true
				break
			}
		}
		if !found {
			return nil, false
		}
		d--
	}
	return p, true
}

// requireKSPMatchesOracle compares KShortestPaths with the oracle for
// every ordered node pair of tp and every k in 1..maxK.
func requireKSPMatchesOracle(t *testing.T, name string, tp *model.Topology, maxK int) {
	t.Helper()
	o := newKSPOracle(tp)
	for _, src := range o.nodes {
		for _, dst := range o.nodes {
			sel := o.kShortest(src, dst, maxK)
			for k := 1; k <= maxK; k++ {
				got, err := tp.KShortestPaths(src, dst, k)
				var want []model.Path
				if sel != nil {
					want = append(want, sel[:min(k, len(sel))]...)
					sort.Slice(want, func(a, b int) bool { return model.ComparePaths(want[a], want[b]) < 0 })
				}
				if want == nil {
					if err == nil {
						t.Fatalf("%s %d→%d k=%d: got %v, oracle finds no path", name, src, dst, k, got)
					}
					continue
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d→%d k=%d: got %v (%v), oracle %v", name, src, dst, k, got, err, want)
				}
			}
		}
	}
}

// TestKShortestPathsMatchesOracle: the dense enumeration equals the
// map-based oracle on every ordered node pair, k = 1..6, of the Clos,
// line and ring fixtures.
func TestKShortestPathsMatchesOracle(t *testing.T) {
	clos := func(s, l, h int) *model.Topology {
		tp, err := workload.ClosTopology(s, l, h)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for _, c := range []struct {
		name string
		tp   *model.Topology
	}{
		{"clos(4,8,4)", clos(4, 8, 4)},
		{"clos(3,4,1)", clos(3, 4, 1)},
		{"line(7)", model.LineTopology(7)},
		{"ring(6)", model.RingTopology(6)},
	} {
		requireKSPMatchesOracle(t, c.name, c.tp, 6)
	}
}

// TestKShortestPathsOracleRandomDigraphs: the same property on seeded
// random digraphs with sparse, unordered node identifiers and links
// added in random order, cycles and unreachable pairs included.
func TestKShortestPathsOracleRandomDigraphs(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		ids := rng.Perm(10 * n)[:n]
		tp := model.NewTopology()
		density := 0.15 + 0.5*rng.Float64()
		for _, u := range rng.Perm(n) {
			for _, v := range rng.Perm(n) {
				if u != v && rng.Float64() < density {
					tp.AddLink(model.NodeID(ids[u]), model.NodeID(ids[v]))
				}
			}
		}
		if len(tp.Nodes()) < 2 {
			continue
		}
		requireKSPMatchesOracle(t, fmt.Sprintf("seed %d", seed), tp, 6)
	}
}
