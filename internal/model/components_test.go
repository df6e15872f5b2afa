package model

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// podSet draws pods disjoint groups of random paths, each group on its
// own node range, and interleaves the groups' flows round-robin so
// every component is scattered across the flow indices.
func podSet(t *testing.T, seed int64, pods int) *FlowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perPod := make([][]*Flow, pods)
	for p := range perPod {
		base := NodeID(100 * (p + 1))
		for k := 0; k < 3+rng.Intn(5); k++ {
			path := Path{base + NodeID(rng.Intn(6))}
			for len(path) < 2+rng.Intn(4) {
				path = append(path, path[len(path)-1]+NodeID(1+rng.Intn(3)))
			}
			perPod[p] = append(perPod[p], UniformFlow(fmt.Sprintf("p%d.f%d", p, k), 50, 0, 0, 1, path...))
		}
	}
	var flows []*Flow
	for k := 0; ; k++ {
		added := false
		for _, fl := range perPod {
			if k < len(fl) {
				flows = append(flows, fl[k])
				added = true
			}
		}
		if !added {
			break
		}
	}
	fs, err := NewFlowSetLax(UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestComponentsLabelling: two flows share a label exactly when a chain
// of shared nodes links them (checked against a closure by flooding),
// labels are numbered by smallest flow index, and first use is safe
// from concurrent callers (run with -race).
func TestComponentsLabelling(t *testing.T) {
	if _, nc := PaperExample().Components(); nc != 1 {
		t.Errorf("paper example: %d components, want 1", nc)
	}
	for seed := int64(1); seed <= 20; seed++ {
		fs := podSet(t, seed, 1+int(seed)%5)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fs.Components()
			}()
		}
		wg.Wait()
		comp, nc := fs.Components()

		// Flood from each unlabelled flow, in index order.
		want := make([]int32, fs.N())
		for i := range want {
			want[i] = -1
		}
		n := int32(0)
		for i := range want {
			if want[i] >= 0 {
				continue
			}
			want[i] = n
			for stack := []int{i}; len(stack) > 0; {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, h := range fs.Flows[j].Path {
					for _, k := range fs.FlowsAt(h) {
						if want[k] < 0 {
							want[k] = n
							stack = append(stack, k)
						}
					}
				}
			}
			n++
		}
		if nc != int(n) {
			t.Fatalf("seed %d: %d components, want %d", seed, nc, n)
		}
		for i := range want {
			if comp[i] != want[i] {
				t.Fatalf("seed %d: flow %d labelled %d, want %d (labels %v)", seed, i, comp[i], want[i], comp)
			}
		}
	}
}
