package trajectory

import (
	"fmt"
	"math"
	"runtime"
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

// TestBenchGuardAddExtends pins the view extension of a warm add: on a
// 50-flow Clos tenant (extend_test.go) at GOMAXPROCS 1 and Parallelism
// 1, a warm AddFlow+Bounds+undo on an Analyzer that extends its
// neighbours' views from the undo snapshot, against the same decision
// on a twin that rebuilds them (testNoExtend). Decisions alternate one
// by one in this process, and each of 9 samples compares their median
// times; the extension must save at least 10% in the median ratio
// (0.69–0.81 on 2 vCPU).
func TestBenchGuardAddExtends(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ten := newClosTenant(1)
	fs := ten.set(t, 50)
	probe := ten.flow()
	opt := Options{Parallelism: 1}
	ext, _ := NewAnalyzer(fs, opt)
	twin, _ := NewAnalyzer(fs, opt)
	decide := func(a *Analyzer, rebuild bool) float64 {
		testNoExtend = rebuild
		defer func() { testNoExtend = false }()
		start := time.Now()
		idx, err := a.AddFlow(probe)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Bounds(); err != nil {
			t.Fatal(err)
		}
		if err := a.RemoveFlow(idx); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	for _, a := range []*Analyzer{ext, twin} {
		if _, err := a.Bounds(); err != nil {
			t.Fatal(err)
		}
	}
	decide(ext, false) // warm-up
	decide(twin, true)
	const decisions = 41
	e, tw := make([]float64, decisions), make([]float64, decisions)
	ratios := make([]float64, 9)
	for s := range ratios {
		for k := 0; k < decisions; k++ {
			if k%2 == 0 {
				e[k], tw[k] = decide(ext, false), decide(twin, true)
			} else {
				tw[k], e[k] = decide(twin, true), decide(ext, false)
			}
		}
		em, _ := medianMAD(e)
		tm, _ := medianMAD(tw)
		ratios[s] = em / tm
	}
	med, mad := medianMAD(ratios)
	if med > 0.9 {
		t.Errorf("an extending warm add costs %.2fx a rebuilding one (median of %d, MAD %.2f, samples %.2f), want <= 0.90",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("an extending warm add costs %.2fx a rebuilding one (MAD %.2f)", med, mad)
	}
}

// TestBenchGuardTScan pins the t-scan: full-view evaluations of a
// converged Analyzer (eval against the cached views and the flat Smax
// table) against the reference's boundForView of the same views and
// table, alternating in this process at GOMAXPROCS 1. The set is a
// five-hop tandem of 30 flows with distinct periods 20–49 at node
// utilisation 0.93, so each busy window spans 4–9 periods of every
// interferer and the scan is ~95% of eval's time. The engine measures
// ~11.5× the reference on 2 vCPU and must stay 8× faster in the median
// of 9 samples, so an eval doing twice its work (~5.8×) fails; the
// engine-wide TestBenchGuardEngineSpeedup does not see that, since the
// scan is a small share of a cold analysis.
func TestBenchGuardTScan(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs := scanSet(t)
	a, _ := NewAnalyzer(fs, Options{Parallelism: 1})
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}
	// Passes per sample, so each side of a sample spans ~10 ms.
	const engReps, refReps = 40, 4
	eng := func() float64 {
		start := time.Now()
		for r := 0; r < engReps; r++ {
			for _, vc := range a.full {
				vc.eval(a.opt, a.smaxFlat, &a.scratch)
			}
		}
		return float64(time.Since(start)) / engReps
	}
	ref := func() float64 {
		start := time.Now()
		for r := 0; r < refReps; r++ {
			for i := range fs.Flows {
				if _, err := boundForView(fs, a.opt, fullView(fs, i), a.smax); err != nil {
					t.Fatal(err)
				}
			}
		}
		return float64(time.Since(start)) / refReps
	}
	eng() // warm-up
	ref()
	ratios := make([]float64, 9)
	for s := range ratios {
		if s%2 == 0 {
			e := eng()
			ratios[s] = ref() / e
		} else {
			r := ref()
			ratios[s] = r / eng()
		}
	}
	med, mad := medianMAD(ratios)
	if med < 8 {
		t.Errorf("engine t-scan only %.2fx faster than the reference (median of %d, MAD %.2f, samples %.2f), want >= 8x",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("engine t-scan %.2fx faster than the reference (MAD %.2f)", med, mad)
	}
}

// scanSet is TestBenchGuardTScan's tandem: flow k has cost 1 at each
// of five shared hops and period 20+k.
func scanSet(t *testing.T) *model.FlowSet {
	t.Helper()
	flows := make([]*model.Flow, 30)
	for k := range flows {
		flows[k] = model.UniformFlow(fmt.Sprintf("s%d", k), model.Time(20+k), 0, 0, 1, 1, 2, 3, 4, 5)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}
