package trajectory

import (
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// TestParallelMatchesSerial: the sweeps are pure functions of the
// previous iterate, so any worker count must produce identical bounds.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sets := []*model.FlowSet{model.PaperExample()}
	for trial := 0; trial < 5; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes: 6, Flows: 6, MaxUtilization: 0.5,
			CostLo: 1, CostHi: 4, JitterHi: 2, AllowReverse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, fs)
	}
	for si, fs := range sets {
		serial, err := Analyze(fs, Options{Parallelism: 1})
		if err != nil {
			continue
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Analyze(fs, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("set %d workers %d: %v", si, workers, err)
			}
			if !reflect.DeepEqual(par.Bounds, serial.Bounds) {
				t.Errorf("set %d workers %d: %v ≠ serial %v",
					si, workers, par.Bounds, serial.Bounds)
			}
			if par.SmaxSweeps != serial.SmaxSweeps {
				t.Errorf("set %d workers %d: sweep count differs", si, workers)
			}
		}
	}
}

// TestParallelErrorPropagation: divergence is reported identically
// under parallel execution.
func TestParallelErrorPropagation(t *testing.T) {
	f1 := model.UniformFlow("f1", 5, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 5, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	for _, workers := range []int{1, 4} {
		if _, err := Analyze(fs, Options{Parallelism: workers}); err == nil {
			t.Errorf("workers=%d: overload accepted", workers)
		}
	}
}

// BenchmarkParallelSmax contrasts serial and parallel fixpoint sweeps
// on a wide flow set (the ablation DESIGN.md calls out).
func BenchmarkParallelSmax(b *testing.B) {
	flows := make([]*model.Flow, 24)
	path := []model.NodeID{1, 2, 3, 4, 5, 6}
	for k := range flows {
		flows[k] = model.UniformFlow(benchFlowName(k), 400, 2, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchFlowName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(fs, Options{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchFlowName(k int) string {
	return string(rune('a'+k/10)) + string(rune('0'+k%10))
}
