package trajectory

import (
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// lowerFanoutFloor lets every engine schedule of the test fan out from
// one interferer entry per worker, so tests of the parallel schedules
// run them on small sets.
func lowerFanoutFloor(tb testing.TB) {
	testFanoutFloor = 1
	tb.Cleanup(func() { testFanoutFloor = 0 })
}

// closSet draws n flows of the Clos tenant (extend_test.go) with its
// periods stretched n/50 times, so each node carries the load of the
// served 50-flow tenant.
func closSet(tb testing.TB, n int) *model.FlowSet {
	tb.Helper()
	ten := newClosTenant(1)
	ten.periodLo *= model.Time(n / 50)
	ten.period *= model.Time(n / 50)
	return ten.set(tb, n)
}

// TestFanoutFloor: under the real floor, a warm delta of the served
// 50-flow tenant stays on the calling goroutine at Parallelism 4, and a
// warm delta of a 400-flow tenant fans out, with the bounds of a
// serial twin.
func TestFanoutFloor(t *testing.T) {
	// churn releases the oldest flow and re-admits it, with Bounds
	// after each, and returns the last bounds.
	churn := func(a *Analyzer) []model.Time {
		f := a.FlowSet().Flows[0]
		if err := a.RemoveFlow(0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Bounds(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddFlow(f); err != nil {
			t.Fatal(err)
		}
		b, err := a.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		n      int
		fanout bool
	}{{50, false}, {400, true}} {
		fs := closSet(t, c.n)
		par, _ := NewAnalyzer(fs, Options{Parallelism: 4})
		ser, _ := NewAnalyzer(fs, Options{Parallelism: 1})
		for _, a := range []*Analyzer{par, ser} {
			if _, err := a.Bounds(); err != nil {
				t.Fatal(err)
			}
		}
		before := fanoutSpawns.Load()
		got := churn(par)
		if spawned := fanoutSpawns.Load() - before; (spawned > 0) != c.fanout {
			t.Errorf("%d flows: warm delta at Parallelism 4 started %d goroutines, want fan-out %v",
				c.n, spawned, c.fanout)
		}
		if want := churn(ser); !reflect.DeepEqual(got, want) {
			t.Errorf("%d flows: bounds at Parallelism 4 differ from serial", c.n)
		}
	}
}

// TestParallelMatchesSerial: the sweeps are pure functions of the
// previous iterate, so any worker count must produce identical bounds.
func TestParallelMatchesSerial(t *testing.T) {
	lowerFanoutFloor(t)
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
	lowerFanoutFloor(t)
	f1 := model.UniformFlow("f1", 5, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 5, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	for _, workers := range []int{1, 4} {
		if _, err := Analyze(fs, Options{Parallelism: workers}); err == nil {
			t.Errorf("workers=%d: overload accepted", workers)
		}
	}
}

// BenchmarkParallelSmax contrasts serial and parallel cold analyses of
// a 400-flow Clos tenant, whose sweeps and view prebuild are far above
// the fan-out floor (the ablation DESIGN.md §6.2 calls out).
func BenchmarkParallelSmax(b *testing.B) {
	fs := closSet(b, 400)
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
