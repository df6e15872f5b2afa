package trajectory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/workload"
)

// podFlows draws pods disjoint Clos fabrics from workload.Clos, moves
// pod p's nodes into its own range, and interleaves the pods' flows
// round-robin, so every interference component is scattered across the
// flow indices. extra flows are appended before the Assumption-1 split.
func podFlows(t testing.TB, seed int64, pods int, extra ...*model.Flow) *model.FlowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var perPod [][]*model.Flow
	for p := 0; p < pods; p++ {
		res, err := workload.Clos(rng, workload.ClosParams{
			Spines: 2, Leaves: 4, HostsPerLeaf: 2, Flows: 6 + rng.Intn(6),
			MaxUtilization: 0.3, CostLo: 1, CostHi: 3, JitterHi: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		var fl []*model.Flow
		for _, f := range res.Original {
			f = f.Clone()
			f.Name = fmt.Sprintf("p%d.%s", p, f.Name)
			for k := range f.Path {
				f.Path[k] += model.NodeID(10000 * (p + 1))
			}
			fl = append(fl, f)
		}
		perPod = append(perPod, fl)
	}
	var flows []*model.Flow
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
	flows = append(flows, extra...)
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), model.EnforceAssumption1(flows))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// componentOptionMatrix covers every Smax estimator, Property 3's
// non-preemption blocking, and serial and parallel sweeps.
func componentOptionMatrix(t *testing.T, fs *model.FlowSet) []engineCase {
	np := cyclicBlocking(fs)
	for i := 3; i < len(np); i += 4 {
		np[i] = nil // a nil row is "no blocking" for that flow
	}
	blocked := withBlocking(t, fs, np)
	var cases []engineCase
	for _, par := range []int{1, 8} {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxNoQueue} {
			cases = append(cases,
				engineCase{fs, Options{Smax: mode, Parallelism: par}},
				engineCase{blocked, Options{Smax: mode, Parallelism: par}},
			)
		}
		cases = append(cases,
			engineCase{fs, Options{Smax: SmaxPrefixFixpoint, Parallelism: par, MaxIterations: 2}},
			engineCase{fs, Options{Smax: SmaxPrefixFixpoint, Parallelism: par, MaxIterations: 4}},
		)
	}
	return cases
}

// TestComponentAnalysisMatchesWholeSet is the sharding differential:
// the cold AnalyzeContext of a multi-pod set, which runs one analyzer
// per component, returns exactly the Result of one whole-set Analyzer
// under every option setting.
func TestComponentAnalysisMatchesWholeSet(t *testing.T) {
	lowerFanoutFloor(t)
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		set := podFlows(t, seed, 3+int(seed))
		if _, nc := set.Components(); nc < 2 {
			t.Fatalf("seed %d: %d components, want several", seed, nc)
		}
		for oi, c := range componentOptionMatrix(t, set) {
			fs, opt := c.fs, c.opt
			a, err := NewAnalyzer(fs, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := a.AnalyzeContext(ctx)
			got, gotErr := AnalyzeContext(ctx, fs, opt)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("seed %d opt %d: whole-set err %v, sharded err %v", seed, oi, wantErr, gotErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d opt %d (%+v): sharded result differs from whole-set", seed, oi, opt)
			}
		}
	}
}

// TestComponentAnalysisUnstable: an overloaded component fails the
// sharded analysis with the whole-set analysis's error class.
func TestComponentAnalysisUnstable(t *testing.T) {
	hog := []*model.Flow{
		model.UniformFlow("hog1", 5, 0, 0, 3, 1, 2, 3),
		model.UniformFlow("hog2", 5, 0, 0, 3, 1, 2, 3),
	}
	fs := podFlows(t, 7, 3, hog...)
	for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxNoQueue} {
		opt := Options{Smax: mode}
		a, err := NewAnalyzer(fs, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, wholeErr := a.Analyze()
		_, shardedErr := Analyze(fs, opt)
		if !errors.Is(wholeErr, model.ErrUnstable) || !errors.Is(shardedErr, model.ErrUnstable) {
			t.Errorf("%v: whole-set err %v, sharded err %v; want ErrUnstable from both", mode, wholeErr, shardedErr)
		}
	}
}

// TestComponentAnalysisTrace: a traced sharded run opens one analysis
// for the whole set, closes one Smax run per component, and emits the
// whole-set run's flow-bound records (component by component).
func TestComponentAnalysisTrace(t *testing.T) {
	fs := podFlows(t, 2, 3)
	_, nc := fs.Components()
	var whole, sharded obs.Collector
	a, err := NewAnalyzer(fs, Options{Tracer: &whole})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(fs, Options{Tracer: &sharded}); err != nil {
		t.Fatal(err)
	}
	evs := sharded.Events()
	if starts := eventsOfType(evs, obs.EvAnalysisStart); len(starts) != 1 || starts[0].Flows != fs.N() {
		t.Errorf("analysis.start events = %+v, want one for all %d flows", starts, fs.N())
	}
	if dones := eventsOfType(evs, obs.EvSmaxDone); len(dones) != nc {
		t.Errorf("%d smax.done events, want one per component (%d)", len(dones), nc)
	}
	bounds := func(evs []obs.Event) []string {
		var out []string
		for _, e := range eventsOfType(evs, obs.EvFlowBound) {
			out = append(out, fmt.Sprintf("%s %d %+v", e.Flow, e.Value, *e.Decomp))
		}
		sort.Strings(out)
		return out
	}
	if got, want := bounds(evs), bounds(whole.Events()); !reflect.DeepEqual(got, want) {
		t.Errorf("flow.bound records differ:\nsharded %v\nwhole   %v", got, want)
	}
}
