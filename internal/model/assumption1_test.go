package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestCheckAssumption1Clean(t *testing.T) {
	fs := PaperExample()
	if v := CheckAssumption1(fs.Flows); len(v) != 0 {
		t.Errorf("paper example must satisfy assumption 1, got %v", v)
	}
}

// TestCheckAssumption1LeaveAndReturn: a flow leaving the path and
// re-entering it violates the assumption in both orientations.
func TestCheckAssumption1LeaveAndReturn(t *testing.T) {
	fi := flowOn("i", 1, 2, 3, 4, 5)
	fj := flowOn("j", 2, 3, 9, 4, 5) // leaves Pi at 9, returns at 4
	v := CheckAssumption1([]*Flow{fi, fj})
	if len(v) == 0 {
		t.Fatal("violation not detected")
	}
	found := false
	for _, x := range v {
		if x.PathFlow == 0 && x.CrossFlow == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected violation of flow 1 against path 0, got %v", v)
	}
}

// TestCheckAssumption1DirectionChange: a flow that doubles back on the
// path (visits 3,4 then returns toward lower indices via another node)
// is flagged.
func TestCheckAssumption1DirectionChange(t *testing.T) {
	fi := flowOn("i", 1, 2, 3, 4, 5)
	fj := flowOn("j", 2, 3, 4, 9) // fine: contiguous
	if v := CheckAssumption1([]*Flow{fi, fj}); len(v) != 0 {
		t.Fatalf("contiguous crossing flagged: %v", v)
	}
	fk := flowOn("k", 9, 2, 4, 8) // skips node 3: not the same links
	if v := CheckAssumption1([]*Flow{fi, fk}); len(v) == 0 {
		t.Error("skipping crossing not flagged")
	}
}

func TestEnforceAssumption1SplitsReentrant(t *testing.T) {
	fi := flowOn("i", 1, 2, 3, 4, 5)
	fj := flowOn("j", 2, 3, 9, 4, 5)
	out := EnforceAssumption1([]*Flow{fi, fj})
	if v := CheckAssumption1(out); len(v) != 0 {
		t.Fatalf("split did not converge: %v", v)
	}
	if len(out) != 3 {
		t.Fatalf("expected 3 flows after split, got %d", len(out))
	}
	// The fragments must cover fj's path and record their parent.
	var fragNodes []NodeID
	for _, f := range out[1:] {
		if p, ok := f.Parent(); !ok || p != 1 {
			t.Errorf("fragment %q parent = %d,%v; want 1,true", f.Name, p, ok)
		}
		fragNodes = append(fragNodes, f.Path...)
	}
	if len(fragNodes) != 5 {
		t.Errorf("fragments cover %d nodes, want 5", len(fragNodes))
	}
	for k, h := range fj.Path {
		if fragNodes[k] != h {
			t.Errorf("fragment node %d = %d, want %d", k, fragNodes[k], h)
		}
	}
}

func TestEnforceAssumption1PreservesCleanSets(t *testing.T) {
	fs := PaperExample()
	out := EnforceAssumption1(fs.Flows)
	if len(out) != len(fs.Flows) {
		t.Errorf("clean set resized from %d to %d", len(fs.Flows), len(out))
	}
	for i, f := range out {
		if f.Name != fs.Flows[i].Name {
			t.Errorf("flow %d renamed to %q", i, f.Name)
		}
		if f.IsVirtual() {
			t.Errorf("flow %q marked virtual", f.Name)
		}
	}
}

// TestEnforceAssumption1DeepSplit: a flow weaving across the path
// needs several cuts.
func TestEnforceAssumption1DeepSplit(t *testing.T) {
	fi := flowOn("i", 1, 2, 3, 4, 5, 6, 7)
	fj := flowOn("j", 2, 90, 4, 91, 6) // touches Pi at 2, 4, 6 via detours
	out := EnforceAssumption1([]*Flow{fi, fj})
	if v := CheckAssumption1(out); len(v) != 0 {
		t.Fatalf("deep split did not converge: %v", v)
	}
	frags := 0
	for _, f := range out {
		if f.IsVirtual() {
			frags++
		}
	}
	if frags < 3 {
		t.Errorf("expected ≥3 fragments, got %d", frags)
	}
}

// TestEnforceAssumption1CutPreservesParameters: fragments keep period,
// jitter, deadline, class and the per-node costs of their segment.
func TestEnforceAssumption1CutPreservesParameters(t *testing.T) {
	fi := flowOn("i", 1, 2, 3, 4, 5)
	fj := &Flow{
		Name: "j", Period: 20, Jitter: 3, Deadline: 99,
		Path: Path{2, 3, 9, 4, 5}, Cost: []Time{1, 2, 3, 4, 5},
		Class: ClassAF, parent: -1,
	}
	out := EnforceAssumption1([]*Flow{fi, fj})
	for _, f := range out {
		if !f.IsVirtual() {
			continue
		}
		if f.Period != 20 || f.Jitter != 3 || f.Deadline != 99 || f.Class != ClassAF {
			t.Errorf("fragment %q lost parameters: %+v", f.Name, f)
		}
		for k, h := range f.Path {
			if f.Cost[k] != fj.CostAt(h) {
				t.Errorf("fragment %q cost at node %d = %d, want %d",
					f.Name, h, f.Cost[k], fj.CostAt(h))
			}
		}
	}
}

// checkAllPairs and enforceAllPairs are the all-pairs scans the
// node-indexed CheckAssumption1 and EnforceAssumption1 replaced, kept
// as the oracle of TestAssumption1MatchesAllPairs.
func checkAllPairs(flows []*Flow) []Assumption1Violation {
	var out []Assumption1Violation
	for i, fi := range flows {
		for j, fj := range flows {
			if i == j {
				continue
			}
			if ok, why := crossesContiguously(fi.Path, fj); !ok {
				out = append(out, Assumption1Violation{PathFlow: i, CrossFlow: j, Reason: why})
			}
		}
	}
	return out
}

func enforceAllPairs(flows []*Flow) []*Flow {
	work := make([]*Flow, len(flows))
	for i, f := range flows {
		work[i] = f.Clone()
		if work[i].parent < 0 && !f.IsVirtual() {
			work[i].parent = -1
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(work) && !changed; i++ {
			for j := 0; j < len(work) && !changed; j++ {
				if i == j {
					continue
				}
				cut := firstDeparture(work[i].Path, work[j])
				if cut < 0 {
					continue
				}
				head, tail := splitFlowAt(work[j], cut, originalIndex(flows, work[j], j))
				rest := append([]*Flow{}, work[:j]...)
				rest = append(rest, head, tail)
				rest = append(rest, work[j+1:]...)
				work = rest
				changed = true
			}
		}
	}
	return work
}

// randomLineFlows draws simple paths on a line 0..nodes-1 that mostly
// step to a neighbour but sometimes jump, reverse or detour through an
// off-line node (90+), so many sets need splits.
func randomLineFlows(rng *rand.Rand, n, nodes int) []*Flow {
	var flows []*Flow
	for k := 0; k < n; k++ {
		seen := map[NodeID]bool{}
		h := NodeID(rng.Intn(nodes))
		path := Path{h}
		seen[h] = true
		dir := NodeID(1 - 2*rng.Intn(2))
		for len(path) < 2+rng.Intn(6) {
			var next NodeID
			switch r := rng.Intn(10); {
			case r < 6:
				next = path[len(path)-1] + dir
			case r < 8:
				next = NodeID(rng.Intn(nodes))
			default:
				next = NodeID(90 + rng.Intn(4))
			}
			if next < 0 || seen[next] {
				break
			}
			seen[next] = true
			path = append(path, next)
		}
		flows = append(flows, UniformFlow(fmt.Sprintf("l%d", k), 100, 0, 0, 1, path...))
	}
	return flows
}

// randomClosFlows draws host-to-host paths through a two-tier Clos
// fabric (leaves 100+, spines 0..spines-1, hosts 1000+100·leaf+h); a
// path may bounce through a second spine and leaf, which re-enters
// other flows' paths.
func randomClosFlows(rng *rand.Rand, n, spines, leaves int) []*Flow {
	var flows []*Flow
	for k := 0; k < n; k++ {
		l1 := rng.Intn(leaves)
		path := Path{NodeID(1000 + 100*l1 + rng.Intn(3)), NodeID(100 + l1)}
		used := map[NodeID]bool{path[0]: true, path[1]: true}
		for hop := 0; hop < 1+rng.Intn(3); hop++ {
			s, l := NodeID(rng.Intn(spines)), NodeID(100+rng.Intn(leaves))
			if used[s] || used[l] {
				break
			}
			used[s], used[l] = true, true
			path = append(path, s, l)
		}
		last := int(path[len(path)-1]) - 100
		path = append(path, NodeID(1000+100*last+10+rng.Intn(3)))
		flows = append(flows, UniformFlow(fmt.Sprintf("c%d", k), 100, 0, 0, 1, path...))
	}
	return flows
}

// TestAssumption1MatchesAllPairs: on random line and Clos sets (many of
// which need splits) the node-indexed check returns the same violations
// in the same order as the all-pairs scan, and the split produces the
// same flows in the same order.
func TestAssumption1MatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	splits := 0
	for trial := 0; trial < 200; trial++ {
		var flows []*Flow
		if trial%2 == 0 {
			flows = randomLineFlows(rng, 2+rng.Intn(14), 4+rng.Intn(8))
		} else {
			flows = randomClosFlows(rng, 2+rng.Intn(20), 2+rng.Intn(3), 2+rng.Intn(5))
		}
		if got, want := CheckAssumption1(flows), checkAllPairs(flows); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: CheckAssumption1 = %v, all-pairs scan = %v", trial, got, want)
		}
		got, want := EnforceAssumption1(flows), enforceAllPairs(flows)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: EnforceAssumption1 differs from the all-pairs split (%d vs %d flows)", trial, len(got), len(want))
		}
		if len(got) > len(flows) {
			splits++
		}
		if v := CheckAssumption1(got); len(v) != 0 {
			t.Fatalf("trial %d: split set still violates Assumption 1: %v", trial, v)
		}
	}
	if splits < 40 {
		t.Fatalf("only %d of 200 sets needed splits: the generators no longer exercise the split", splits)
	}
}
