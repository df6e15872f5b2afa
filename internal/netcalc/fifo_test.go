package netcalc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"trajan/internal/model"
	"trajan/internal/sim"
)

// TestFIFOResidual: the closed form keeps the leftover rate, its
// latency is minimized at θ* = latency + σc/rate, and every grid point
// yields a curve no better than θ* — the documented-default claim.
func TestFIFOResidual(t *testing.T) {
	const rate, latency, sigmaC, rhoC = 1.0, 0.0, 6.0, 0.25
	star := fifoThetaStar(rate, latency, sigmaC)
	if star != sigmaC {
		t.Fatalf("θ* = %v, want σc = %v for a unit server", star, sigmaC)
	}
	opt := FIFOResidual(rate, latency, sigmaC, rhoC, star)
	if got := opt.FinalRate(); math.Abs(got-(rate-rhoC)) > 1e-12 {
		t.Errorf("residual rate %v, want %v", got, rate-rhoC)
	}
	if got := opt.latency(); math.Abs(got-star) > 1e-9 {
		t.Errorf("residual latency %v at θ*, want %v", got, star)
	}
	for _, theta := range []float64{0, 0.5 * star, 2 * star, 4 * star, 10 * star} {
		c := FIFOResidual(rate, latency, sigmaC, rhoC, theta)
		if c.latency() < opt.latency()-1e-9 {
			t.Errorf("θ=%v beats θ*: latency %v < %v", theta, c.latency(), opt.latency())
		}
	}
	// And the grid search therefore lands on θ*.
	best := bestResidual(rate, latency, sigmaC, rhoC, []float64{0, 0.5, 1, 2, 4})
	if best.latency() != opt.latency() {
		t.Errorf("grid search latency %v, want θ* latency %v", best.latency(), opt.latency())
	}
}

// TestAnalyzeFIFOSingleFlow: with no cross traffic the residual is the
// full server and the bound collapses to jitter + burst + links.
func TestAnalyzeFIFOSingleFlow(t *testing.T) {
	f := model.UniformFlow("f", 100, 0, 0, 4, 1, 2, 3)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	res, err := AnalyzeFIFO(fs, FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("single flow must be stable")
	}
	if res.Bounds[0] < f.MinTraversal(fs.Net.Lmin) {
		t.Errorf("bound %d below min traversal %d", res.Bounds[0], f.MinTraversal(fs.Net.Lmin))
	}
	if model.IsUnbounded(res.Bounds[0]) {
		t.Error("bound must be finite")
	}
}

// TestAnalyzeFIFONeverLooser: the FIFO analysis propagates burstiness
// through residual latencies (σ_cross) instead of whole-aggregate
// delays (σ_cross + σ_own) and takes the PBOO tandem when it helps, so
// it can never report a looser bound than the per-node Analyze.
func TestAnalyzeFIFONeverLooser(t *testing.T) {
	fixtures := map[string]*model.FlowSet{
		"paper": model.PaperExample(),
	}
	f1 := model.UniformFlow("long", 60, 3, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8)
	f2 := model.UniformFlow("cross", 60, 0, 0, 3, 9, 1, 10)
	fixtures["tandem"] = model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	for name, fs := range fixtures {
		agg, err := Analyze(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fifo, err := AnalyzeFIFO(fs, FIFOOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fs.Flows {
			if fifo.Bounds[i] > agg.Bounds[i] {
				t.Errorf("%s/%s: AnalyzeFIFO %d looser than Analyze %d",
					name, f.Name, fifo.Bounds[i], agg.Bounds[i])
			}
		}
	}
}

// TestAnalyzeFIFOSoundOnPaperExample: the bound dominates simulated
// worst cases over periodic and randomized scenarios on the paper's
// five-flow example — the package-local slice of the cross-backend
// soundness gate in internal/feasibility.
func TestAnalyzeFIFOSoundOnPaperExample(t *testing.T) {
	fs := model.PaperExample()
	res, err := AnalyzeFIFO(fs, FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("paper example must be stable")
	}
	scenarios := []*sim.Scenario{
		sim.PeriodicScenario(fs, []model.Time{0, 3, 5, 7, 11}, 4),
		sim.PeriodicScenario(fs, nil, 3),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scenarios = append(scenarios, sim.RandomScenario(fs, rng, 6, 50, 8, 2))
	}
	for si, sc := range scenarios {
		out, err := sim.NewEngine(fs, sim.Config{}).Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, worst := range out.MaxResponses() {
			if res.Bounds[i] < worst {
				t.Errorf("scenario %d, flow %s: bound %d < simulated %d",
					si, fs.Flows[i].Name, res.Bounds[i], worst)
			}
		}
	}
}

// TestAnalyzeFIFOArrivalSpec: an explicit token bucket equal to the
// sporadic derivation reproduces the default bounds exactly, and a
// malformed spec is an invalid-config error.
func TestAnalyzeFIFOArrivalSpec(t *testing.T) {
	fs := model.PaperExample()
	def, err := AnalyzeFIFO(fs, FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*ArrivalSpec, fs.N())
	for i, f := range fs.Flows {
		specs[i] = &ArrivalSpec{
			Sigma: 1 + float64(f.Jitter)/float64(f.Period),
			Rho:   1 / float64(f.Period),
		}
	}
	spec, err := AnalyzeFIFO(fs, FIFOOptions{Arrivals: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Bounds {
		if def.Bounds[i] != spec.Bounds[i] {
			t.Errorf("flow %d: explicit spec %d != sporadic default %d",
				i, spec.Bounds[i], def.Bounds[i])
		}
	}
	specs[0] = &ArrivalSpec{Sigma: -1, Rho: 0.1}
	if _, err := AnalyzeFIFO(fs, FIFOOptions{Arrivals: specs}); !errors.Is(err, model.ErrInvalidConfig) {
		t.Errorf("negative burst: got %v, want ErrInvalidConfig", err)
	}
	if _, err := AnalyzeFIFO(fs, FIFOOptions{Arrivals: specs[:2]}); !errors.Is(err, model.ErrInvalidConfig) {
		t.Errorf("short spec slice: got %v, want ErrInvalidConfig", err)
	}
}

// TestAnalyzeFIFOOverload: utilization above 1 yields explicit
// Unbounded verdicts, not an error and not finite garbage.
func TestAnalyzeFIFOOverload(t *testing.T) {
	f1 := model.UniformFlow("a", 4, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("b", 4, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	res, err := AnalyzeFIFO(fs, FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Error("150%-utilized node reported stable")
	}
	for i, b := range res.Bounds {
		if !model.IsUnbounded(b) {
			t.Errorf("flow %d: overloaded bound %d is finite", i, b)
		}
	}
}

// TestAnalyzeFIFOBlocking: a flow's Blocking shifts its bound by
// exactly its sum δi and leaves every other flow's bound alone.
func TestAnalyzeFIFOBlocking(t *testing.T) {
	fs := model.PaperExample()
	base, err := AnalyzeFIFO(fs, FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]*model.Flow, fs.N())
	for i, f := range fs.Flows {
		flows[i] = f.Clone()
	}
	flows[1].Blocking = make([]model.Time, len(flows[1].Path))
	flows[1].Blocking[0], flows[1].Blocking[len(flows[1].Path)-1] = 2, 5
	got, err := AnalyzeFIFO(model.MustNewFlowSet(fs.Net, flows), FIFOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs.Flows {
		want := base.Bounds[i]
		if i == 1 {
			want += 7
		}
		if got.Bounds[i] != want {
			t.Errorf("flow %d: bound %d, want %d", i, got.Bounds[i], want)
		}
	}
}

// TestFloatOverflowDegradesToUnbounded: a finite float total past the
// Time rail must come out as TimeInfinity with Stable=false in every
// netcalc analysis — the raw float→int64 conversion this replaces
// wrapped to a negative number. Jitter 1.1e18 is inside the validated
// domain (< 2^60 ≈ 1.15e18) yet pushes jitter + burst-delay past it.
func TestFloatOverflowDegradesToUnbounded(t *testing.T) {
	const hugeJitter = model.Time(1.1e18)
	f := model.UniformFlow("huge", 4, hugeJitter, 0, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	for name, run := range map[string]func() (*Result, error){
		"analyze":  func() (*Result, error) { return Analyze(fs, Options{}) },
		"fifo":     func() (*Result, error) { return AnalyzeFIFO(fs, FIFOOptions{}) },
		"pboo":     func() (*Result, error) { return AnalyzePBOO(fs, Options{}) },
		"charnylb": func() (*Result, error) { return CharnyLeBoudec(fs) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Bounds[0] < 0 {
			t.Fatalf("%s: bound wrapped negative: %d", name, res.Bounds[0])
		}
		if !model.IsUnbounded(res.Bounds[0]) {
			t.Errorf("%s: overflowing bound %d not degraded to Unbounded", name, res.Bounds[0])
		}
		if res.Stable {
			t.Errorf("%s: saturated result reported stable", name)
		}
	}
}

// TestTimeFromFloat covers the conversion rails directly.
func TestTimeFromFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want model.Time
		sat  bool
	}{
		{0, 0, false},
		{42, 42, false},
		{-7, -7, false},
		{float64(model.TimeInfinity), model.TimeInfinity, true},
		{float64(model.TimeInfinity) * 4, model.TimeInfinity, true},
		{math.Inf(1), model.TimeInfinity, true},
		{math.Inf(-1), -model.TimeInfinity, true},
		{math.NaN(), model.TimeInfinity, true},
		{-float64(model.TimeInfinity), -model.TimeInfinity, true},
	}
	for _, c := range cases {
		var sat bool
		got := timeFromFloat(c.v, &sat)
		if got != c.want || sat != c.sat {
			t.Errorf("timeFromFloat(%v) = %d, sat=%v; want %d, sat=%v", c.v, got, sat, c.want, c.sat)
		}
	}
	// The sticky flag is never cleared by a later in-range conversion.
	var sat bool
	timeFromFloat(math.Inf(1), &sat)
	timeFromFloat(1, &sat)
	if !sat {
		t.Error("saturation flag was cleared")
	}
}
