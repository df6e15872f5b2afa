package trajectory

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"trajan/internal/model"
)

// TestBenchGuardEngineSpeedup pins the cold engine's speed-up over the
// straight-line reference on the flows32/flows64 tandems (five shared
// hops, the AnalyzeScaling tiers). Both run serially in this process,
// alternating, so host speed cancels; the floor is 3× against a
// measured 6–7×. Losing the fused view builder, the pruned t-scan or
// the dirty-slot sweeps each costs more than that margin.
func TestBenchGuardEngineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	const reps = 5 // engine runs per sample, so each sample spans milliseconds
	opt := Options{Parallelism: 1}
	for _, n := range []int{32, 64} {
		fs := tandemFlows(t, n, 5)
		timed := func(runs int, analyze func(*model.FlowSet, Options) (*Result, error)) time.Duration {
			start := time.Now()
			for r := 0; r < runs; r++ {
				if _, err := analyze(fs, opt); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start) / time.Duration(runs)
		}
		timed(1, Analyze) // warm-up
		ratios := make([]float64, 7)
		for s := range ratios {
			ref := timed(1, referenceAnalyze)
			eng := timed(reps, Analyze)
			ratios[s] = float64(ref) / float64(eng)
		}
		med, mad := medianMAD(ratios)
		if med < 3 {
			t.Errorf("flows%d: engine only %.2fx faster than the reference (median of %d, MAD %.2f, samples %.2f), want >= 3x",
				n, med, len(ratios), mad, ratios)
		} else {
			t.Logf("flows%d: engine %.2fx faster than the reference (MAD %.2f)", n, med, mad)
		}
	}
}

// tandemFlows builds n identical flows sharing one hops-long path —
// the AnalyzeScaling tandem tiers.
func tandemFlows(t *testing.T, n, hops int) *model.FlowSet {
	t.Helper()
	path := make([]model.NodeID, hops)
	for i := range path {
		path[i] = model.NodeID(i + 1)
	}
	flows := make([]*model.Flow, n)
	for k := range flows {
		flows[k] = model.UniformFlow(fmt.Sprintf("f%d", k), model.Time(10*n), 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// medianMAD returns the median of xs and their median absolute
// deviation from it.
func medianMAD(xs []float64) (med, mad float64) {
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	med = median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return med, median(dev)
}
