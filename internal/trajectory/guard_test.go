package trajectory

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"trajan/internal/model"
	"trajan/internal/workload"
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
// neighbours' views from the state the add replaced, against the same
// decision on a twin that rebuilds them (testNoExtend). Decisions
// alternate one by one in this process, and each of 9 samples compares
// their median times; the extension must save at least 10% in the
// median ratio (0.69–0.81 on 2 vCPU).
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

// TestBenchGuardReleasePatch pins the re-derivation of the views a warm
// release or period renegotiation drops: on the 200-flow pinned-spine
// Clos tenant (pinnedClosSet) at GOMAXPROCS 1 and Parallelism 1, an
// Analyzer that shrinks and patches them against a twin that rebuilds
// them (testNoExtend), decisions alternating one by one in this
// process. A release decision is RemoveFlow of the oldest flow and
// Bounds; the re-admission that restores the set is not timed. A
// renegotiation decision scales one flow's period by 0.8–1.25, calls
// Bounds, reverts and calls Bounds again. Each of 9 samples compares
// the two Analyzers' median times per kind, and each kind's median
// ratio must stay at or below its ceiling: release 0.97 (measured
// 0.88–0.93 on 2 vCPU: the twin keeps the unmet views too, and the
// busy periods and the closure's fixed point from the no-queue floor
// cost both the same), period renegotiation 0.75 (measured 0.57–0.60).
// Rebuilding instead reads 1.0. The test also logs each kind against a
// cold Analyze of the same set (release 0.53–0.59, renegotiation
// 0.32–0.34 per call).
func TestBenchGuardReleasePatch(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("time ratio not checked under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs := pinnedClosSet(t, 200)
	opt := Options{Parallelism: 1}
	der, _ := NewAnalyzer(fs, opt)
	twin, _ := NewAnalyzer(fs, opt)
	rng := rand.New(rand.NewSource(2))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bounds := func(a *Analyzer) {
		_, err := a.Bounds()
		must(err)
	}
	release := func(a *Analyzer, rebuild bool) float64 {
		testNoExtend = rebuild
		defer func() { testNoExtend = false }()
		f := a.fs.Flows[0]
		start := time.Now()
		must(a.RemoveFlow(0))
		bounds(a)
		d := time.Since(start)
		_, err := a.AddFlow(f)
		must(err)
		bounds(a)
		return float64(d)
	}
	renegotiate := func(a *Analyzer, rebuild bool, k int, scale model.Time) float64 {
		testNoExtend = rebuild
		defer func() { testNoExtend = false }()
		old := a.fs.Flows[k]
		nf := old.Clone()
		nf.Period = old.Period * scale / 100
		start := time.Now()
		must(a.UpdateFlow(k, nf))
		bounds(a)
		must(a.UpdateFlow(k, old))
		bounds(a)
		return float64(time.Since(start))
	}
	cold := func() float64 {
		start := time.Now()
		_, err := Analyze(der.fs, opt)
		must(err)
		return float64(time.Since(start))
	}
	for _, a := range []*Analyzer{der, twin} {
		bounds(a)
	}
	release(der, false) // warm-up
	release(twin, true)
	const decisions = 15
	r, rt := make([]float64, decisions), make([]float64, decisions)
	u, ut := make([]float64, decisions), make([]float64, decisions)
	c := make([]float64, decisions)
	relRatios, updRatios := make([]float64, 9), make([]float64, 9)
	var relCold, updCold float64
	for s := range relRatios {
		for k := 0; k < decisions; k++ {
			i, scale := rng.Intn(fs.N()), model.Time(80+rng.Intn(46))
			if k%2 == 0 {
				r[k], rt[k] = release(der, false), release(twin, true)
				u[k], ut[k] = renegotiate(der, false, i, scale), renegotiate(twin, true, i, scale)
			} else {
				rt[k], r[k] = release(twin, true), release(der, false)
				ut[k], u[k] = renegotiate(twin, true, i, scale), renegotiate(der, false, i, scale)
			}
			c[k] = cold()
		}
		rm, _ := medianMAD(r)
		rtm, _ := medianMAD(rt)
		um, _ := medianMAD(u)
		utm, _ := medianMAD(ut)
		cm, _ := medianMAD(c)
		relRatios[s], updRatios[s] = rm/rtm, um/utm
		relCold, updCold = relCold+rm/cm/9, updCold+um/2/cm/9
	}
	for _, g := range []struct {
		kind    string
		ratios  []float64
		ceiling float64
		cold    float64
	}{
		{"release", relRatios, 0.97, relCold},
		{"period renegotiation", updRatios, 0.75, updCold},
	} {
		med, mad := medianMAD(g.ratios)
		if med > g.ceiling {
			t.Errorf("a re-derived warm %s costs %.2fx a rebuilding one (median of %d, MAD %.2f, samples %.2f), want <= %.2f",
				g.kind, med, len(g.ratios), mad, g.ratios, g.ceiling)
		} else {
			t.Logf("a re-derived warm %s costs %.2fx a rebuilding one (MAD %.2f) and %.2fx a cold Analyze",
				g.kind, med, mad, g.cold)
		}
	}
}

// pinnedClosSet draws n flows as the root package's helper of the same
// name does: the served workloads' Clos(4,8,4) routes through the spine
// pinned to each leaf pair, costs 1–3 and periods 150–300 stretched
// n/50 times, so each node carries the load of the served 50-flow
// tenant.
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

// TestBenchGuardTScan pins the t-scan: full-view evaluations of a
// converged Analyzer (eval against the cached views and the flat Smax
// table) against naiveScan of the same views and table, alternating in
// this process at GOMAXPROCS 1. naiveScan shares no code with eval or
// the reference, so the ratio moves only when eval's cost does. The set
// is a five-hop tandem of 30 flows with distinct periods 20–49 at node
// utilisation 0.93, so each busy window spans 4–9 periods of every
// interferer and the scan is ~95% of eval's time. The engine measures
// 3.1–4.4× the naive scan on 2 vCPU and must stay 2.4× faster in the
// median of 9 samples, so an eval doing twice its work (1.6–2.0×) fails;
// the engine-wide TestBenchGuardEngineSpeedup does not see that, since
// the scan is a small share of a cold analysis.
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
	for i, vc := range a.full {
		r, ts := vc.eval(a.smaxFlat, &a.scratch)
		if nr, nt := naiveScan(vc, a.smaxFlat); nr != r || nt != ts {
			t.Fatalf("flow %d: eval = (%d, t=%d), naive scan = (%d, t=%d)", i, r, ts, nr, nt)
		}
	}
	// Passes per sample, so each side of a sample spans ~10 ms.
	const engReps, naiveReps = 40, 10
	eng := func() float64 {
		start := time.Now()
		for r := 0; r < engReps; r++ {
			for _, vc := range a.full {
				vc.eval(a.smaxFlat, &a.scratch)
			}
		}
		return float64(time.Since(start)) / engReps
	}
	naive := func() float64 {
		start := time.Now()
		for r := 0; r < naiveReps; r++ {
			for _, vc := range a.full {
				naiveScan(vc, a.smaxFlat)
			}
		}
		return float64(time.Since(start)) / naiveReps
	}
	eng() // warm-up
	naive()
	ratios := make([]float64, 9)
	for s := range ratios {
		if s%2 == 0 {
			e := eng()
			ratios[s] = naive() / e
		} else {
			n := naive()
			ratios[s] = n / eng()
		}
	}
	med, mad := medianMAD(ratios)
	if med < 2.4 {
		t.Errorf("engine t-scan only %.2fx faster than the naive scan (median of %d, MAD %.2f, samples %.2f), want >= 2.4x",
			med, len(ratios), mad, ratios)
	} else {
		t.Logf("engine t-scan %.2fx faster than the naive scan (MAD %.2f)", med, mad)
	}
}

// naiveScan is Property 2's maximisation by its definition, over the
// view's constants and the flat Smax table: W(t)+C^last−t at every
// integer instant t of [−J, −J+Bslow), each packet count (1+⌊w/T⌋)⁺
// taken afresh, the first maximiser kept. It shares no code with eval
// or the reference; TestBenchGuardTScan checks it against eval and
// times eval against it.
func naiveScan(vc *viewCache, flat []model.Time) (r, tStar model.Time) {
	count := func(w, per model.Time) model.Time {
		if w < 0 {
			return 0
		}
		return 1 + w/per
	}
	lo := -vc.jitter
	for t := lo; t < lo+vc.bslow; t++ {
		w := vc.fixed + count(t+vc.jitter, vc.period)*vc.cslow
		for x := range vc.jflow {
			off := flat[vc.iEnt[x]] + flat[vc.jEnt[x]] + vc.aConst[x]
			w += count(t+off, vc.iperiods[x]) * vc.csj[x]
		}
		if v := w + vc.clast - t; t == lo || v > r {
			r, tStar = v, t
		}
	}
	return r, tStar
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
