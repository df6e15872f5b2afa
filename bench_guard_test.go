// Benchmark regression guards. Allocation guards compare allocs/op —
// deterministic at a fixed GOMAXPROCS — against the recorded trajectory
// in BENCH_trajectory.json; time guards compare two quantities measured
// in this process, so host speed cancels. The absolute ns/op checks
// against the recorded baseline run only with TRAJAN_BENCH_ABSOLUTE=1,
// on the machine that recorded it.
package trajan_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/sim"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// benchBaseline mirrors the runs array of BENCH_trajectory.json.
type benchBaseline struct {
	Runs []struct {
		Label      string `json:"label"`
		Benchmarks map[string]struct {
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"benchmarks"`
	} `json:"runs"`
}

// baselineAllocs returns the most recently recorded allocs/op for a
// benchmark name, scanning runs newest-last.
func baselineAllocs(t *testing.T, name string) int64 {
	t.Helper()
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	found := int64(-1)
	for _, run := range base.Runs {
		if b, ok := run.Benchmarks[name]; ok {
			found = b.AllocsPerOp
		}
	}
	if found < 0 {
		t.Fatalf("baseline has no entry for %s", name)
	}
	return found
}

// baselineNs returns the most recently recorded ns/op for a benchmark
// name, scanning runs newest-last.
func baselineNs(t *testing.T, name string) float64 {
	t.Helper()
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	found := float64(-1)
	for _, run := range base.Runs {
		if b, ok := run.Benchmarks[name]; ok {
			found = b.NsPerOp
		}
	}
	if found < 0 {
		t.Fatalf("baseline has no entry for %s", name)
	}
	return found
}

// TestBenchGuardAnalyzeScaling pins the cold-analysis wall clock of the
// flows32..flows128 tandem tiers within ±30% of the recorded baseline.
// It compares ns/op recorded on one machine, so it runs only with
// TRAJAN_BENCH_ABSOLUTE=1 on that machine; everywhere else the
// same-process ratio guard TestBenchGuardEngineSpeedup (engine against
// the reference, internal/trajectory) stands in for it. Only
// regressions fail; running faster than baseline is logged.
func TestBenchGuardAnalyzeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if os.Getenv("TRAJAN_BENCH_ABSOLUTE") != "1" {
		t.Skip("absolute ns/op guard runs only with TRAJAN_BENCH_ABSOLUTE=1")
	}
	for _, n := range []int{32, 64, 128} {
		fs := tandemSet(t, n, 5)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trajectory.Analyze(fs, trajectory.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		name := "BenchmarkAnalyzeScaling/" + benchName("flows", n)
		base := baselineNs(t, name)
		got := float64(res.NsPerOp())
		if got > base*1.3 {
			t.Errorf("%s: %.0f ns/op, baseline %.0f (+30%% = %.0f)", name, got, base, base*1.3)
		} else {
			t.Logf("%s: %.0f ns/op (baseline %.0f)", name, got, base)
		}
	}
}

// TestBenchGuardComponentScaling pins the linear cost of cold analysis
// over disjoint components: the combined analysis (trajectory,
// holistic, netcalc) of six disjoint pods against the sum of the same
// six pods analysed alone, both measured in this process, so host speed
// cancels. A layer that scans every flow per node, or runs one
// whole-set trajectory fixpoint instead of one per component, pushes
// the ratio toward 2; the floor is 1.5 against a measured 1.0.
func TestBenchGuardComponentScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	all, pods := podSets(t, 6, 1)
	timed := func(fs *model.FlowSet) time.Duration {
		start := time.Now()
		if _, err := coldCombined(fs, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(all) // warm-up
	ratios := make([]float64, 7)
	for s := range ratios {
		var whole, parts time.Duration
		for r := 0; r < 2; r++ {
			whole += timed(all)
			for _, p := range pods {
				parts += timed(p)
			}
		}
		ratios[s] = float64(whole) / float64(parts)
	}
	med, mad := medianMAD(ratios)
	if med > 1.5 {
		t.Errorf("six pods cost %.2fx the pods alone (median of %d, MAD %.2f, samples %.2f), want <= 1.5",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("six pods cost %.2fx the pods alone (MAD %.2f)", med, mad)
	}
}

// TestBenchGuardCombinedCores pins the cold combined analysis to the
// cores Options.Parallelism allows: the six pods of
// TestBenchGuardComponentScaling analysed at Parallelism 0 (here
// GOMAXPROCS 2) against Parallelism 1, both in this process, so host
// speed cancels. The ratio comes from running the three backends
// concurrently: the pods' trajectory analyses are too small for the
// engine's own fan-out (fanoutFloor, DESIGN.md §6.2), so their views
// are built and their sweeps run on one goroutine either way, and with
// the backends run in turn the ratio reads 0.85–0.99. A sample
// sums two runs of each, alternated, and the guard takes the median of
// seven; the floor is 1.25 against 1.45–1.72 measured on 2 vCPUs.
//
// The ratio measures a second core only while one is free, and `go
// test ./...` runs other packages' tests beside this one. So a sample
// counts only when two spinning goroutines, timed before it and after
// each of its four runs, ran at least 1.6× faster than one spinning
// twice. Under `go test ./...` the other packages hold the second core
// for the first seconds of this one, so after a busy sample the guard
// sleeps a little and tries again; it skips when seven such samples do
// not come within 45 seconds.
func TestBenchGuardCombinedCores(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector, which serializes much of the parallel work")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	all, _ := podSets(t, 6, 1)
	timed := func(workers int) time.Duration {
		start := time.Now()
		if _, err := coldCombined(all, workers); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(0) // warm-up
	timed(1)
	var ratios, busy []float64
	for deadline := time.Now().Add(45 * time.Second); len(ratios) < 7 && time.Now().Before(deadline); {
		c := freeCores()
		var par, ser time.Duration
		for r := 0; r < 2; r++ {
			par += timed(0)
			c = min(c, freeCores())
			ser += timed(1)
			c = min(c, freeCores())
		}
		if c < 1.6 {
			busy = append(busy, c)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		ratios = append(ratios, float64(ser)/float64(par))
	}
	if len(ratios) < 7 {
		t.Skipf("only %d of %d samples had two free cores (spin ratios of the others %.2f)",
			len(ratios), len(ratios)+len(busy), busy)
	}
	med, mad := medianMAD(ratios)
	if med < 1.25 {
		t.Errorf("combined analysis of six pods at GOMAXPROCS 2 only %.2fx faster than serial (median of %d, MAD %.2f, samples %.2f), want >= 1.25x",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("combined analysis of six pods at GOMAXPROCS 2 %.2fx faster than serial (MAD %.2f, %d busy samples dropped)",
			med, mad, len(busy))
	}
}

// TestBenchGuardWarmFanout holds the engine's fan-out floor from both
// sides at GOMAXPROCS 2, on the churn step of a pinned-spine Clos
// tenant: release the oldest flow and re-admit it, with Bounds after
// each.
//
//   - The served 50-flow tenant's warm deltas stay below the floor, so
//     Parallelism 0 may cost at most 1.1x Parallelism 1: the median of
//     7 samples, each alternating 20 steps of the two. When every
//     schedule fanned out, the ratio read 1.04–1.10 on 2 vCPU.
//   - A 400-flow tenant's warm deltas are above it, so Parallelism 0
//     must be at least 1.25x faster than Parallelism 1, in the median
//     of 7 samples that each had two free cores (freeCores, as in
//     TestBenchGuardCombinedCores); it skips when seven such samples
//     do not come within 45 seconds.
func TestBenchGuardWarmFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector, which serializes much of the parallel work")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pair := func(n int) (par, ser *trajectory.Analyzer) {
		fs := pinnedClosSet(t, n)
		return warmAnalyzer(t, fs, trajectory.Options{}), warmAnalyzer(t, fs, trajectory.Options{Parallelism: 1})
	}
	timed := func(a *trajectory.Analyzer) time.Duration {
		start := time.Now()
		releaseReadmit(t, a)
		return time.Since(start)
	}

	par, ser := pair(50)
	timed(par) // warm-up
	timed(ser)
	small := make([]float64, 7)
	for s := range small {
		var p, q time.Duration
		for k := 0; k < 20; k++ {
			p += timed(par)
			q += timed(ser)
		}
		small[s] = float64(p) / float64(q)
	}
	med, mad := medianMAD(small)
	if med > 1.1 {
		t.Errorf("50-flow warm churn at Parallelism 0 costs %.2fx Parallelism 1 (median of %d, MAD %.2f, samples %.2f), want <= 1.10x",
			med, len(small), mad, small)
	} else {
		t.Logf("50-flow warm churn at Parallelism 0 costs %.2fx Parallelism 1 (MAD %.2f)", med, mad)
	}

	par, ser = pair(400)
	timed(par)
	timed(ser)
	var ratios, busy []float64
	for deadline := time.Now().Add(45 * time.Second); len(ratios) < 7 && time.Now().Before(deadline); {
		c := freeCores()
		var p, q time.Duration
		for r := 0; r < 2; r++ {
			p += timed(par)
			c = min(c, freeCores())
			q += timed(ser)
			c = min(c, freeCores())
		}
		if c < 1.6 {
			busy = append(busy, c)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		ratios = append(ratios, float64(q)/float64(p))
	}
	if len(ratios) < 7 {
		t.Skipf("only %d of %d 400-flow samples had two free cores (spin ratios of the others %.2f)",
			len(ratios), len(ratios)+len(busy), busy)
	}
	med, mad = medianMAD(ratios)
	if med < 1.25 {
		t.Errorf("400-flow warm churn at Parallelism 0 only %.2fx faster than Parallelism 1 (median of %d, MAD %.2f, samples %.2f), want >= 1.25x",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("400-flow warm churn at Parallelism 0 %.2fx faster than Parallelism 1 (MAD %.2f, %d busy samples dropped)",
			med, mad, len(busy))
	}
}

// pinnedClosSet draws n flows on a Clos(4,8,4) fabric the way the
// served workloads route them: host, leaf, the spine pinned to the leaf
// pair, leaf, host. Costs are 1–3 and periods 150–300 stretched n/50
// times, so each node carries the load of the served 50-flow tenant.
func pinnedClosSet(tb testing.TB, n int) *model.FlowSet {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var pin [8][8]int
	for a := range pin {
		for b := a + 1; b < len(pin); b++ {
			pin[a][b] = rng.Intn(4)
		}
	}
	scale := model.Time(max(1, n/50))
	flows := make([]*model.Flow, n)
	for k := range flows {
		sl := rng.Intn(8)
		dl := (sl + 1 + rng.Intn(7)) % 8
		flows[k] = model.UniformFlow(fmt.Sprintf("f%d", k), scale*model.Time(150+rng.Intn(151)), 0, 0, model.Time(1+rng.Intn(3)),
			workload.ClosHost(sl, rng.Intn(4)), workload.ClosLeaf(sl), workload.ClosSpine(pin[min(sl, dl)][max(sl, dl)]),
			workload.ClosLeaf(dl), workload.ClosHost(dl, rng.Intn(4)))
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// releaseReadmit is the churn step of TestBenchGuardWarmFanout: release
// the oldest flow and re-admit it, with Bounds after each.
func releaseReadmit(tb testing.TB, a *trajectory.Analyzer) {
	f := a.FlowSet().Flows[0]
	if err := a.RemoveFlow(0); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.AddFlow(f); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		tb.Fatal(err)
	}
}

// freeCores estimates how many cores this process gets right now, up
// to GOMAXPROCS 2: the time of one goroutine spinning twice over the
// time of two goroutines spinning once each, about 2 on an idle
// machine and about 1 while another process holds one of two cores.
func freeCores() float64 {
	spin := func() uint64 {
		x := uint64(1)
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return x
	}
	start := time.Now()
	sink := spin() + spin()
	serial := time.Since(start)
	var a, b uint64
	var wg sync.WaitGroup
	wg.Add(2)
	start = time.Now()
	go func() {
		defer wg.Done()
		a = spin()
	}()
	go func() {
		defer wg.Done()
		b = spin()
	}()
	wg.Wait()
	both := time.Since(start)
	if sink+a+b == 0 { // keeps the spins from being optimised away
		return 0
	}
	return float64(serial) / float64(both)
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

// TestBenchGuardAdmissionChurn re-runs the warm admission loop of
// BenchmarkAdmissionChurn/flows64 with tracing disabled and fails if
// allocs/op drift more than 5% above the recorded baseline — the
// zero-overhead-when-disabled contract of the obs layer. It runs at
// GOMAXPROCS 1, where the baseline was recorded: a sweep or prebuild
// that fans out allocates per worker, so the count would depend on the
// worker count if churn64 ever crossed the fan-out floor.
func TestBenchGuardAdmissionChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := testing.Benchmark(func(b *testing.B) {
		a := warmAnalyzer(b, staggeredSet(b, 64, 5), trajectory.Options{})
		probe := probeFlow(64, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churnOnce(b, a, probe)
		}
	})
	base := baselineAllocs(t, "BenchmarkAdmissionChurn/flows64")
	limit := base + base/20
	if got := res.AllocsPerOp(); got > limit {
		t.Errorf("AdmissionChurn/flows64: %d allocs/op, baseline %d (+5%% = %d)", got, base, limit)
	} else {
		t.Logf("AdmissionChurn/flows64: %d allocs/op (baseline %d)", got, base)
	}
}

// TestBenchGuardTracedChurn guards the configuration the daemon serves:
// the warm churn64 loop with the metrics registry as its tracer, the
// one trajand installs, against the same loop untraced. Decisions of
// the two alternate one by one in this process at GOMAXPROCS 1, and
// each of 9 samples compares their median times, so host speed and
// drift cancel. Tracing may cost at most 10% in the median ratio and
// no allocation per decision: it observes the engine, it does not
// select a different one. Under the race detector only the allocation
// check runs.
func TestBenchGuardTracedChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs := staggeredSet(t, 64, 5)
	probe := probeFlow(64, 5)
	plain := warmAnalyzer(t, fs, trajectory.Options{})
	traced := warmAnalyzer(t, fs, trajectory.Options{Tracer: obs.NewMetrics()})
	timed := func(a *trajectory.Analyzer) float64 {
		start := time.Now()
		churnOnce(t, a, probe)
		return float64(time.Since(start))
	}
	pa := testing.AllocsPerRun(50, func() { churnOnce(t, plain, probe) })
	ta := testing.AllocsPerRun(50, func() { churnOnce(t, traced, probe) })
	if pa != ta {
		t.Errorf("traced churn64 makes %.0f allocs per decision, untraced %.0f", ta, pa)
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector, which instruments the registry's atomics")
	}
	// Each sample alternates single decisions of the two loops and
	// compares their medians, so a burst of load from elsewhere on the
	// host lands on both sides alike and a preempted decision is an
	// outlier, not a shift.
	const decisions = 101
	p, tr := make([]float64, decisions), make([]float64, decisions)
	ratios := make([]float64, 9)
	for s := range ratios {
		for k := 0; k < decisions; k++ {
			if k%2 == 0 {
				p[k], tr[k] = timed(plain), timed(traced)
			} else {
				tr[k], p[k] = timed(traced), timed(plain)
			}
		}
		pm, _ := medianMAD(p)
		tm, _ := medianMAD(tr)
		ratios[s] = tm / pm
	}
	med, mad := medianMAD(ratios)
	if med > 1.10 {
		t.Errorf("traced churn64 costs %.2fx untraced (median of %d, MAD %.2f, samples %.2f), want <= 1.10",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("traced churn64 costs %.2fx untraced (MAD %.2f)", med, mad)
	}
}

// warmAnalyzer returns an analyzer over fs whose fixed point has
// converged, the state every admission decision starts from.
func warmAnalyzer(tb testing.TB, fs *model.FlowSet, opt trajectory.Options) *trajectory.Analyzer {
	tb.Helper()
	a, err := trajectory.NewAnalyzer(fs, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		tb.Fatal(err)
	}
	return a
}

// churnOnce is one warm admission decision of the churn loop: admit the
// probe (delta re-analysis seeded from the converged table), query
// every bound, and evict it again (snapshot restore).
func churnOnce(tb testing.TB, a *trajectory.Analyzer, probe *model.Flow) {
	idx, err := a.AddFlow(probe)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		tb.Fatal(err)
	}
	if err := a.RemoveFlow(idx); err != nil {
		tb.Fatal(err)
	}
}

// TestBenchGuardAnalyzerReuse pins the amortized per-flow query against
// a converged table at its recorded baseline: allocation-free. Any
// allocation on this path — a tracer event built despite the nil check,
// say — fails the guard outright.
func TestBenchGuardAnalyzerReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	const n = 32
	res := testing.Benchmark(func(b *testing.B) {
		fs := tandemSet(b, n, 5)
		a, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Bounds(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeFlow(i % n); err != nil {
				b.Fatal(err)
			}
		}
	})
	base := baselineAllocs(t, "BenchmarkAnalyzerReuse/flows32")
	if got := res.AllocsPerOp(); got > base {
		t.Errorf("AnalyzerReuse/flows32: %d allocs/op, baseline %d", got, base)
	}
}

// TestBenchGuardRouteAdmit re-runs the BenchmarkRouteAdmit/workers1
// decision loop and fails if allocs/op drift more than 10% above the
// recorded baseline. The auto-route decision is candidate enumeration
// plus one parallel what-if batch; losing the copy-on-write forks or
// the pooled scratch (falling back to cold per-candidate analyzers)
// costs several times that.
func TestBenchGuardRouteAdmit(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	topo, err := workload.ClosTopology(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, sl, dl int, period, cost model.Time) *model.Flow {
		p, err := topo.Route(workload.ClosHost(sl, 0), workload.ClosHost(dl, 0))
		if err != nil {
			t.Fatal(err)
		}
		return model.UniformFlow(name, period, 0, 0, cost, p...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		mk("a", 0, 1, 60, 9),
		mk("b", 1, 2, 70, 11),
		mk("c", 2, 3, 80, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		a, err := trajectory.NewAnalyzer(fs, trajectory.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Bounds(); err != nil {
			b.Fatal(err)
		}
		probe := mk("probe", 3, 0, 50, 2)
		probe.Deadline = 45
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfs, err := feasibility.RouteCandidates(topo, probe, feasibility.DefaultRouteK)
			if err != nil {
				b.Fatal(err)
			}
			scored := feasibility.ScoreRoutesWhatIf(ctx, a, cfs, -1)
			if win := feasibility.ChooseRoute(scored); win < 0 {
				b.Fatal("no feasible route")
			}
		}
	})
	base := baselineAllocs(t, "BenchmarkRouteAdmit/workers1")
	limit := base + base/10
	if got := res.AllocsPerOp(); got > limit {
		t.Errorf("RouteAdmit/workers1: %d allocs/op, baseline %d (+10%% = %d)", got, base, limit)
	} else {
		t.Logf("RouteAdmit/workers1: %d allocs/op (baseline %d)", got, base)
	}
}

// routeCommitBase admits about 40 seeded flows by route=auto into a
// Controller on Clos(4,8,4), the shape the route-auto workload serves,
// and returns it with a probe the set admits.
func routeCommitBase(tb testing.TB) (*feasibility.Controller, *model.Topology, *model.Flow) {
	tb.Helper()
	topo, err := workload.ClosTopology(4, 8, 4)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := feasibility.NewController(model.UnitDelayNetwork(), trajectory.Options{}, "", topo, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mk := func(name string) *model.Flow {
		sl, dl := rng.Intn(8), rng.Intn(7)
		if dl >= sl {
			dl++
		}
		return model.UniformFlow(name, model.Time(300+rng.Intn(300)), 0, 200,
			model.Time(1+rng.Intn(3)), workload.ClosHost(sl, rng.Intn(4)), workload.ClosHost(dl, rng.Intn(4)))
	}
	ctx := context.Background()
	for k := 0; k < 40; k++ {
		if _, err := c.Admit(ctx, mk(benchName("f", k)), true); err != nil && !errors.Is(err, model.ErrInvalidConfig) {
			tb.Fatal(err)
		}
	}
	for k := 0; ; k++ {
		probe := mk(benchName("probe", k))
		d, err := c.Admit(ctx, probe, true)
		if err == nil && d.Outcome == "admitted" {
			if _, err := c.Release(ctx, probe.Name); err != nil {
				tb.Fatal(err)
			}
			return c, topo, probe
		}
	}
}

// TestBenchGuardRouteCommit pins what a route=auto decision costs beyond
// its scoring: a Controller.Admit with route=auto plus the Release that
// undoes it, against RouteCandidates and ScoreRoutesWhatIf of the same
// probe on the same warm base, alternating in this process at
// GOMAXPROCS 1. The commit adopts the winner's scored fork and the
// release restores the snapshot it pushed, so the decision should cost
// little more than its scoring (0.99 on 2 vCPU); re-analysing the
// winner on commit reads 1.5. The ceiling is 1.15 in the median of 7
// samples.
func TestBenchGuardRouteCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, topo, probe := routeCommitBase(t)
	ctx := context.Background()
	decide := func() float64 {
		start := time.Now()
		d, err := c.Admit(ctx, probe, true)
		if err != nil || d.Outcome != "admitted" {
			t.Fatalf("probe admit: %v %+v", err, d)
		}
		if _, err := c.Release(ctx, probe.Name); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	score := func() float64 {
		start := time.Now()
		a, err := c.Analyzer()
		if err != nil {
			t.Fatal(err)
		}
		cfs, err := feasibility.RouteCandidates(topo, probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if feasibility.ChooseRoute(feasibility.ScoreRoutesWhatIf(ctx, a, cfs, -1)) < 0 {
			t.Fatal("probe has no feasible route")
		}
		return float64(time.Since(start))
	}
	const decisions = 21
	d, s := make([]float64, decisions), make([]float64, decisions)
	ratios := make([]float64, 7)
	for r := range ratios {
		for k := 0; k < decisions; k++ {
			if k%2 == 0 {
				d[k], s[k] = decide(), score()
			} else {
				s[k], d[k] = score(), decide()
			}
		}
		dm, _ := medianMAD(d)
		sm, _ := medianMAD(s)
		ratios[r] = dm / sm
	}
	med, mad := medianMAD(ratios)
	if med > 1.15 {
		t.Errorf("route=auto admit+release costs %.2fx its scoring (median of %d, MAD %.2f, samples %.2f), want <= 1.15",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("route=auto admit+release costs %.2fx its scoring (MAD %.2f)", med, mad)
	}
}

// simGuardSet mirrors the sim package's bigParkingLot(33) benchmark
// topology: 32 flows aggregating down a line, 560 packet-hops per
// packet round.
func simGuardSet(tb testing.TB) *model.FlowSet {
	tb.Helper()
	const nodes = 33
	flows := make([]*model.Flow, nodes-1)
	for k := range flows {
		path := make([]model.NodeID, nodes-k)
		for i := range path {
			path[i] = model.NodeID(k + i)
		}
		flows[k] = model.UniformFlow(
			fmt.Sprintf("p%02d", k), model.Time(20*(nodes-1)), 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// TestBenchGuardSimAllocs pins the calendar-queue engine's signature
// property: a streaming run's allocations are O(in-flight packets),
// independent of the total packet count. It replays the 1e6-tier
// BenchmarkEngineThroughput workload and fails if allocs/op drift more
// than 20% above baseline — losing the packet pool, the flight free
// list, or the de-boxed scheduler heaps all cost orders of magnitude
// more than that (the retained reference engine spends 4.1M allocs on
// the same workload).
func TestBenchGuardSimAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	fs := simGuardSet(t)
	const perFlow = 1_000_000 / 560
	eng := sim.NewEngine(fs, sim.Config{})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunSource(b.Context(), sim.NewSporadicSource(fs, 1, perFlow, 40, 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	base := baselineAllocs(t, "BenchmarkEngineThroughput/hops1e6")
	limit := base + base/5
	if got := res.AllocsPerOp(); got > limit {
		t.Errorf("EngineThroughput/hops1e6: %d allocs/op, baseline %d (+20%% = %d)", got, base, limit)
	} else {
		t.Logf("EngineThroughput/hops1e6: %d allocs/op (baseline %d)", got, base)
	}
}

// TestBenchGuardSimSpeedup encodes the PR's acceptance criterion
// directly: the calendar-queue engine must stay well ahead of the
// reference heap engine on the same workload. Both engines run the
// 1e5-tier workload in this process, so host speed cancels; a sample
// is the ratio of two reference runs to two calendar runs, interleaved,
// and the guard takes the median of seven. The floor is 5x against a
// measured 11.9x, loose enough for a noisy shared runner but far below
// what losing the wheel, the dense tables, or the pools would leave.
func TestBenchGuardSimSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector, whose cost falls unevenly on the two engines")
	}
	fs := simGuardSet(t)
	const perFlow = 100_000 / 560
	eng := sim.NewEngine(fs, sim.Config{})
	// The reference engine only takes materialized scenarios.
	sc := sim.RandomScenario(fs, rand.New(rand.NewSource(1)), perFlow, 40, 1, 1)
	fast := func() time.Duration {
		start := time.Now()
		if _, err := eng.RunSource(t.Context(), sim.NewSporadicSource(fs, 1, perFlow, 40, 1)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	ref := func() time.Duration {
		start := time.Now()
		if _, err := eng.RunReference(t.Context(), sc); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast() // warm-up
	ref()
	ratios := make([]float64, 7)
	for s := range ratios {
		var f, r time.Duration
		for k := 0; k < 2; k++ {
			f += fast()
			r += ref()
		}
		ratios[s] = float64(r) / float64(f)
	}
	med, mad := medianMAD(ratios)
	if med < 5 {
		t.Errorf("calendar engine only %.1fx faster than the reference (median of %d, MAD %.2f, samples %.1f), want >= 5x",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("calendar engine %.1fx faster than the reference (MAD %.2f)", med, mad)
	}
}

// TestBenchGuardSimComponentScaling bounds the cost of simulating
// disjoint components as shards: the six-pod set of
// TestBenchGuardComponentScaling, simulated whole, against the same
// six pods simulated alone, at GOMAXPROCS 1 so the shards run in turn
// and the machine's core count cancels. A sample sums two runs of each
// and the guard takes the median of seven. Per-shard set-up or shared
// state that grew with the shard count pushes the ratio up; the
// ceiling is 1.5.
func TestBenchGuardSimComponentScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	all, pods := podSets(t, 6, 1)
	timed := func(fs *model.FlowSet) time.Duration {
		eng := sim.NewEngine(fs, sim.Config{})
		start := time.Now()
		if _, err := eng.RunSource(t.Context(), sim.NewSporadicSource(fs, 1, 100, 10, 1)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(all) // warm-up
	ratios := make([]float64, 7)
	for s := range ratios {
		var whole, parts time.Duration
		for r := 0; r < 2; r++ {
			whole += timed(all)
			for _, p := range pods {
				parts += timed(p)
			}
		}
		ratios[s] = float64(whole) / float64(parts)
	}
	med, mad := medianMAD(ratios)
	if med > 1.5 {
		t.Errorf("simulating six pods costs %.2fx the pods alone (median of %d, MAD %.2f, samples %.2f), want <= 1.5",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("simulating six pods costs %.2fx the pods alone (MAD %.2f)", med, mad)
	}
}
