package model

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// equalFlowSets asserts that every piece of derived state agrees between
// a delta-built set and a cold NewFlowSet rebuild: flows, node indexes,
// Smin prefix rows, and the full (lazily built) relation table.
func equalFlowSets(t *testing.T, got, want *FlowSet) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: got %d, want %d", got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		g, w := got.Flows[i], want.Flows[i]
		if g.Name != w.Name || g.Period != w.Period || g.Jitter != w.Jitter || g.Deadline != w.Deadline {
			t.Fatalf("flow %d params differ: %+v vs %+v", i, g, w)
		}
		if len(g.Path) != len(w.Path) {
			t.Fatalf("flow %d path length differs", i)
		}
		for k := range w.Path {
			if g.Path[k] != w.Path[k] || g.Cost[k] != w.Cost[k] {
				t.Fatalf("flow %d node %d differs", i, k)
			}
			if got.SminAt(i, k) != want.SminAt(i, k) {
				t.Fatalf("SminAt(%d,%d): got %d, want %d", i, k, got.SminAt(i, k), want.SminAt(i, k))
			}
			if got.PathIndex(i, w.Path[k]) != k {
				t.Fatalf("PathIndex(%d,%d) = %d, want %d", i, w.Path[k], got.PathIndex(i, w.Path[k]), k)
			}
		}
		for j := 0; j < want.N(); j++ {
			if i == j {
				continue
			}
			if !reflect.DeepEqual(got.Relation(i, j), want.Relation(i, j)) {
				t.Fatalf("Relation(%d,%d): got %+v, want %+v", i, j, got.Relation(i, j), want.Relation(i, j))
			}
		}
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("Nodes: got %v, want %v", got.Nodes(), want.Nodes())
	}
	for _, h := range want.Nodes() {
		if !reflect.DeepEqual(got.FlowsAt(h), want.FlowsAt(h)) {
			t.Fatalf("FlowsAt(%d): got %v, want %v", h, got.FlowsAt(h), want.FlowsAt(h))
		}
		if g, w := got.TotalUtilizationAt(h), want.TotalUtilizationAt(h); g != w {
			t.Fatalf("TotalUtilizationAt(%d): got %v, want %v", h, g, w)
		}
	}
}

func TestWithFlowAddedMatchesCold(t *testing.T) {
	base := PaperExample()
	add := UniformFlow("extra", 50, 2, 80, 3, 2, 3, 4)
	got, err := base.WithFlowAdded(add)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFlowSet(base.Net, append(append([]*Flow{}, base.Flows...), add))
	if err != nil {
		t.Fatal(err)
	}
	equalFlowSets(t, got, want)
	if base.N() != 5 {
		t.Fatal("base mutated by WithFlowAdded")
	}
	// The stored flow is a copy: mutating the argument must not leak in.
	add.Period = 1
	if got.Flows[5].Period != 50 {
		t.Error("WithFlowAdded aliased the argument flow")
	}
}

func TestWithFlowRemovedMatchesCold(t *testing.T) {
	base := PaperExample()
	for i := 0; i < base.N(); i++ {
		got, err := base.WithFlowRemoved(i)
		if err != nil {
			t.Fatal(err)
		}
		rest := append(append([]*Flow{}, base.Flows[:i]...), base.Flows[i+1:]...)
		want, err := NewFlowSet(base.Net, rest)
		if err != nil {
			t.Fatal(err)
		}
		equalFlowSets(t, got, want)
	}
	if _, err := base.WithFlowRemoved(-1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("negative index: %v", err)
	}
	if _, err := base.WithFlowRemoved(base.N()); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("past-end index: %v", err)
	}
	one := MustNewFlowSet(UnitDelayNetwork(), []*Flow{flowOn("solo", 1, 2)})
	if _, err := one.WithFlowRemoved(0); err == nil || err.Error() != "flowset: no flows" {
		t.Errorf("removing the last flow: %v", err)
	}
}

func TestSubsetMatchesCold(t *testing.T) {
	base := PaperExample()
	for _, idx := range [][]int{{0}, {1, 3}, {0, 2, 4}, {0, 1, 2, 3, 4}} {
		got, err := base.Subset(idx)
		if err != nil {
			t.Fatal(err)
		}
		var flows []*Flow
		for _, i := range idx {
			flows = append(flows, base.Flows[i])
		}
		want, err := NewFlowSet(base.Net, flows)
		if err != nil {
			t.Fatal(err)
		}
		equalFlowSets(t, got, want)
	}
	for _, idx := range [][]int{nil, {-1}, {5}, {2, 1}, {1, 1}} {
		if _, err := base.Subset(idx); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Subset(%v): %v, want ErrInvalidConfig", idx, err)
		}
	}
	if base.N() != 5 || base.FlowsAt(3)[1] != 2 {
		t.Error("base mutated by Subset")
	}
}

func TestWithFlowUpdatedMatchesCold(t *testing.T) {
	base := PaperExample()
	upd := UniformFlow("tau3", 40, 1, 70, 5, 2, 3, 4, 7, 10)
	got, err := base.WithFlowUpdated(2, upd)
	if err != nil {
		t.Fatal(err)
	}
	flows := append([]*Flow{}, base.Flows...)
	flows[2] = upd
	want, err := NewFlowSet(base.Net, flows)
	if err != nil {
		t.Fatal(err)
	}
	equalFlowSets(t, got, want)
	if base.Flows[2].Period == 40 {
		t.Fatal("base mutated by WithFlowUpdated")
	}
	if _, err := base.WithFlowUpdated(9, upd); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range update: %v", err)
	}
}

// TestDeltaValidationMatchesCold: every rejection a delta constructor
// produces must carry the exact error string of a cold NewFlowSet over
// the same candidate slice.
func TestDeltaValidationMatchesCold(t *testing.T) {
	base := PaperExample()

	coldAdd := func(f *Flow) error {
		_, err := NewFlowSet(base.Net, append(append([]*Flow{}, base.Flows...), f))
		return err
	}
	coldUpd := func(i int, f *Flow) error {
		flows := append([]*Flow{}, base.Flows...)
		flows[i] = f
		_, err := NewFlowSet(base.Net, flows)
		return err
	}
	match := func(t *testing.T, warm, cold error) {
		t.Helper()
		if warm == nil || cold == nil {
			t.Fatalf("expected errors, got warm=%v cold=%v", warm, cold)
		}
		if warm.Error() != cold.Error() {
			t.Fatalf("error mismatch:\nwarm: %s\ncold: %s", warm, cold)
		}
	}

	t.Run("invalid flow", func(t *testing.T) {
		bad := UniformFlow("bad", 0, 0, 0, 4, 1, 2)
		_, warm := base.WithFlowAdded(bad)
		match(t, warm, coldAdd(bad))
	})
	t.Run("duplicate name on add", func(t *testing.T) {
		dup := UniformFlow("tau1", 36, 0, 0, 4, 1, 2)
		_, warm := base.WithFlowAdded(dup)
		match(t, warm, coldAdd(dup))
	})
	t.Run("duplicate name on update", func(t *testing.T) {
		dup := UniformFlow("tau5", 36, 0, 0, 4, 2, 3, 4)
		_, warm := base.WithFlowUpdated(0, dup)
		match(t, warm, coldUpd(0, dup))
	})
	t.Run("assumption 1 on add", func(t *testing.T) {
		// Crosses P1 (1,3,4,5,8), leaves at 9 and returns at 5.
		weave := UniformFlow("weave", 36, 0, 0, 4, 3, 4, 9, 5)
		_, warm := base.WithFlowAdded(weave)
		match(t, warm, coldAdd(weave))
	})
	t.Run("assumption 1 on update", func(t *testing.T) {
		weave := UniformFlow("weave", 36, 0, 0, 4, 3, 4, 9, 5)
		rejected := 0
		for i := 0; i < base.N(); i++ {
			_, warm := base.WithFlowUpdated(i, weave)
			cold := coldUpd(i, weave)
			if (warm == nil) != (cold == nil) {
				t.Fatalf("index %d: warm err %v, cold err %v", i, warm, cold)
			}
			if cold != nil {
				match(t, warm, cold)
				rejected++
			}
		}
		if rejected == 0 {
			t.Fatal("no update triggered an assumption-1 rejection")
		}
	})
}

// TestDeltaChainRandomized drives a random add/remove/update walk and
// checks each step against a cold rebuild, including rejected steps
// (error strings must match and the set must stay usable).
func TestDeltaChainRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := UnitDelayNetwork()
	mkFlow := func(id int) *Flow {
		ln := 2 + rng.Intn(3)
		start := NodeID(1 + rng.Intn(4))
		path := make(Path, ln)
		for k := range path {
			path[k] = start + NodeID(k)
		}
		if rng.Intn(2) == 0 { // reverse direction
			for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
				path[a], path[b] = path[b], path[a]
			}
		}
		return UniformFlow(
			// Names may collide on purpose: collisions exercise the
			// duplicate-name rejection path.
			"f"+string(rune('a'+id%6)),
			Time(20+rng.Intn(40)), Time(rng.Intn(4)), 0, Time(1+rng.Intn(4)), path...)
	}
	fs := MustNewFlowSet(net, []*Flow{mkFlow(100), mkFlow(101), mkFlow(102)})
	// Rename to guarantee a valid start.
	for i, f := range fs.Flows {
		f.Name = f.Name + "-" + string(rune('0'+i))
	}

	for step := 0; step < 200; step++ {
		var next *FlowSet
		var err error
		var cold *FlowSet
		var coldErr error
		switch op := rng.Intn(3); {
		case op == 0 || fs.N() == 1:
			f := mkFlow(step)
			next, err = fs.WithFlowAdded(f)
			cold, coldErr = NewFlowSet(net, append(append([]*Flow{}, fs.Flows...), f))
		case op == 1:
			i := rng.Intn(fs.N())
			next, err = fs.WithFlowRemoved(i)
			cold, coldErr = NewFlowSet(net, append(append([]*Flow{}, fs.Flows[:i]...), fs.Flows[i+1:]...))
		default:
			i := rng.Intn(fs.N())
			f := mkFlow(step)
			next, err = fs.WithFlowUpdated(i, f)
			flows := append([]*Flow{}, fs.Flows...)
			flows[i] = f
			cold, coldErr = NewFlowSet(net, flows)
		}
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("step %d: warm err %v, cold err %v", step, err, coldErr)
		}
		if err != nil {
			if err.Error() != coldErr.Error() {
				t.Fatalf("step %d: error mismatch\nwarm: %s\ncold: %s", step, err, coldErr)
			}
			continue // fs unchanged, keep walking
		}
		equalFlowSets(t, next, cold)
		fs = next
	}
}
