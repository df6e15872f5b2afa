package trajectory

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/workload"
)

// determinismSets is the corpus the byte-identity properties run over:
// the paper example, fuzzed line topologies with jitter, reverse flows
// and mixed path lengths, and two disjoint Clos pods.
func determinismSets(t *testing.T) []*model.FlowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	sets := []*model.FlowSet{model.PaperExample()}
	for trial := 0; trial < 4; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes: 6, Flows: 7, MaxUtilization: 0.5,
			CostLo: 1, CostHi: 4, JitterHi: 3, AllowReverse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, fs)
	}
	return append(sets, closPods(t, rng, 2, 10))
}

// closPods draws pods disjoint leaf-spine pods (2 spines, 4 leaves, 2
// hosts per leaf) of perPod random host-to-host flows, each pod on its
// own node range: several interference components of several flows
// each, so the parallel view prebuild runs inside every component.
func closPods(t *testing.T, rng *rand.Rand, pods, perPod int) *model.FlowSet {
	t.Helper()
	topo, err := workload.ClosTopology(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*model.Flow
	for p := 0; p < pods; p++ {
		for k := 0; k < perPod; k++ {
			sl := rng.Intn(4)
			dl := (sl + 1 + rng.Intn(3)) % 4
			path, err := topo.Route(workload.ClosHost(sl, rng.Intn(2)), workload.ClosHost(dl, rng.Intn(2)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range path {
				path[i] += model.NodeID(10000 * (p + 1))
			}
			flows = append(flows, model.UniformFlow(fmt.Sprintf("p%d.f%d", p, k),
				model.Time(60+rng.Intn(61)), model.Time(rng.Intn(3)), 0, model.Time(1+rng.Intn(3)), path...))
		}
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), model.EnforceAssumption1(flows))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// schedulerGrid runs fn under every GOMAXPROCS × Options.Parallelism
// combination the determinism properties quantify over, restoring the
// previous GOMAXPROCS afterwards.
func schedulerGrid(t *testing.T, fn func(t *testing.T, procs, workers int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			fn(t, procs, workers)
		}
	}
}

// TestColdAnalyzeDeterminism pins the tentpole's determinism contract:
// a cold Analyze must produce a byte-identical obs trace log and a
// deeply equal Result across every GOMAXPROCS × worker-count
// combination of the prefix fixed point. The colored parallel sweeps
// make this non-trivial — workers race on wall-clock, so the property
// holds only because slot evaluation is Jacobi (reads the immutable
// previous iterate), commits happen post-barrier in slot order, and
// every trace event is emitted from the serial sweep driver.
func TestColdAnalyzeDeterminism(t *testing.T) {
	for si, fs := range determinismSets(t) {
		var refLog []byte
		var refRes *Result
		var refErr string
		first := true
		schedulerGrid(t, func(t *testing.T, procs, workers int) {
			var buf bytes.Buffer
			res, err := Analyze(fs, Options{
				Parallelism: workers, Tracer: obs.NewJSONTracer(&buf),
			})
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			if first {
				refLog, refRes, refErr = buf.Bytes(), res, errStr
				first = false
				return
			}
			if errStr != refErr {
				t.Fatalf("set %d procs %d workers %d: error %q ≠ baseline %q",
					si, procs, workers, errStr, refErr)
			}
			if !bytes.Equal(buf.Bytes(), refLog) {
				t.Errorf("set %d procs %d workers %d: trace log diverges (%d vs %d bytes)",
					si, procs, workers, buf.Len(), len(refLog))
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("set %d procs %d workers %d: Result diverges",
					si, procs, workers)
			}
		})
	}
}

// TestWarmDeltaDeterminism extends the byte-identity property over the
// warm path: converge a base, admit a probe flow (delta re-analysis
// seeded from the converged table), analyze, evict it, analyze again.
// The full lifecycle log — cold fixpoint, both warm re-analyses and
// every bound event — must be byte-identical across the scheduler
// grid.
func TestWarmDeltaDeterminism(t *testing.T) {
	probe := model.UniformFlow("probe", 40, 1, 0, 2, 2, 3, 4)
	for si, fs := range determinismSets(t) {
		var refLog []byte
		var refErr string
		first := true
		schedulerGrid(t, func(t *testing.T, procs, workers int) {
			var buf bytes.Buffer
			errStr := func() string {
				a, err := NewAnalyzer(fs, Options{
					Parallelism: workers, Tracer: obs.NewJSONTracer(&buf),
				})
				if err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				idx, err := a.AddFlow(probe)
				if err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				if err := a.RemoveFlow(idx); err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				return ""
			}()
			if first {
				refLog, refErr = buf.Bytes(), errStr
				first = false
				return
			}
			if errStr != refErr {
				t.Fatalf("set %d procs %d workers %d: error %q ≠ baseline %q",
					si, procs, workers, errStr, refErr)
			}
			if !bytes.Equal(buf.Bytes(), refLog) {
				t.Errorf("set %d procs %d workers %d: warm lifecycle log diverges (%d vs %d bytes)",
					si, procs, workers, buf.Len(), len(refLog))
			}
		})
	}
}

// TestUntracedMatchesTraced pins that a tracer changes no Result field:
// a traced and an untraced Analyze must produce deeply equal Results
// (bounds, details, sweep counts) and identical error strings.
func TestUntracedMatchesTraced(t *testing.T) {
	for si, fs := range determinismSets(t) {
		plain, plainErr := Analyze(fs, Options{})
		var buf bytes.Buffer
		traced, tracedErr := Analyze(fs, Options{Tracer: obs.NewJSONTracer(&buf)})
		if (plainErr == nil) != (tracedErr == nil) ||
			(plainErr != nil && plainErr.Error() != tracedErr.Error()) {
			t.Fatalf("set %d: untraced err %v ≠ traced err %v", si, plainErr, tracedErr)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("set %d: untraced Result ≠ traced Result", si)
		}
	}
}

// TestPrebuildDropsUnrequestedViews: when the serial loop stops at a
// flow's busy-period error, the views a parallel prebuild built for
// the flows after it are dropped, so a later run builds them and
// traces their busy periods exactly as a serial Analyzer does. The
// lifecycle (failed cold prefix fixed point, removal of the overloading
// flow, re-analysis) must log the same bytes at every worker count.
func TestPrebuildDropsUnrequestedViews(t *testing.T) {
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("x", 60, 0, 0, 1, 0, 1),
		model.UniformFlow("m", 10, 0, 0, 2, 1, 2, 3, 4),
		model.UniformFlow("y", 60, 0, 0, 1, 5, 6, 7),
		model.UniformFlow("o", 10, 0, 0, 9, 3, 5),
		model.UniformFlow("z", 60, 0, 0, 1, 6, 7, 8),
	})
	var refLog []byte
	var refRes *Result
	first := true
	schedulerGrid(t, func(t *testing.T, procs, workers int) {
		var buf bytes.Buffer
		a, err := NewAnalyzer(fs, Options{Parallelism: workers, Tracer: obs.NewJSONTracer(&buf)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Analyze(); err == nil {
			t.Fatal("overloaded node 3 accepted")
		}
		if err := a.RemoveFlow(3); err != nil {
			t.Fatal(err)
		}
		res, err := a.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if first {
			refLog, refRes, first = buf.Bytes(), res, false
			return
		}
		if !bytes.Equal(buf.Bytes(), refLog) {
			t.Errorf("procs %d workers %d: lifecycle log diverges (%d vs %d bytes)",
				procs, workers, buf.Len(), len(refLog))
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("procs %d workers %d: Result diverges", procs, workers)
		}
	})
}
