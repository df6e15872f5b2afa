package diffserv

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"trajan/internal/model"
	"trajan/internal/sim"
	"trajan/internal/workload"
)

func drain(src sim.ScenarioSource, flow int) []sim.PacketSpec {
	var out []sim.PacketSpec
	var spec sim.PacketSpec
	for src.Next(flow, &spec) {
		c := spec
		c.Proc = append([]model.Time(nil), spec.Proc...)
		c.Link = append([]model.Time(nil), spec.Link...)
		out = append(out, c)
	}
	return out
}

// TestShapedSourceConformance: every release the shaper emits must be
// accepted by a fresh policer with the same profile — the wrapped
// stream conforms to the negotiated token bucket by construction — and
// releases stay nondecreasing per flow.
func TestShapedSourceConformance(t *testing.T) {
	fs := model.PaperExample()
	profile := func(int) *TokenBucket {
		return &TokenBucket{Rate: 2, RatePeriod: 25, Burst: 4}
	}
	// Bursty traffic deliberately violates the sporadic contract; the
	// shaper must still emit a conforming stream.
	shaped := ShapedSource(fs, sim.NewBurstySource(fs, 17, 50, 5), profile)
	for f := 0; f < fs.N(); f++ {
		specs := drain(shaped, f)
		if len(specs) != 50 {
			t.Fatalf("flow %d: shaper emitted %d packets, want 50 (shaping must not drop)", f, len(specs))
		}
		oracle := profile(f)
		var last model.Time
		for k, spec := range specs {
			if spec.Released < last {
				t.Fatalf("flow %d packet %d released at %d after %d", f, k, spec.Released, last)
			}
			last = spec.Released
			if spec.Released < spec.Generated {
				t.Fatalf("flow %d packet %d released at %d before generation %d", f, k, spec.Released, spec.Generated)
			}
			if !oracle.Police(spec.Released, packetSize(fs, f, &spec)) {
				t.Fatalf("flow %d packet %d at %d does not conform to its own shaping profile", f, k, spec.Released)
			}
		}
	}
}

// TestShapedSourceIsDelayOnly: shaping never reorders, drops, or
// touches anything but the release time.
func TestShapedSourceIsDelayOnly(t *testing.T) {
	fs := model.PaperExample()
	plain := sim.NewBurstySource(fs, 3, 30, 4)
	shaped := ShapedSource(fs, sim.NewBurstySource(fs, 3, 30, 4),
		func(int) *TokenBucket { return &TokenBucket{Rate: 1, RatePeriod: 20, Burst: 2} })
	for f := 0; f < fs.N(); f++ {
		a, b := drain(plain, f), drain(shaped, f)
		if len(a) != len(b) {
			t.Fatalf("flow %d: %d packets shaped to %d", f, len(a), len(b))
		}
		for k := range a {
			if b[k].Released < a[k].Released {
				t.Errorf("flow %d packet %d released earlier after shaping (%d < %d)", f, k, b[k].Released, a[k].Released)
			}
			b[k].Released = a[k].Released
			if !reflect.DeepEqual(a[k], b[k]) {
				t.Errorf("flow %d packet %d: shaping changed more than the release:\nplain  %+v\nshaped %+v", f, k, a[k], b[k])
			}
		}
	}
}

// TestPolicedSourceDrops: the policer discards exactly the
// non-conforming packets and accounts for them.
func TestPolicedSourceDrops(t *testing.T) {
	fs := model.PaperExample()
	const n = 40
	mk := func(int) *TRTCM {
		return &TRTCM{CIR: 1, CIRPeriod: 30, CBS: 2, PIR: 2, PIRPeriod: 30, PBS: 4}
	}
	policed := PolicedSource(fs, sim.NewBurstySource(fs, 8, n, 5), mk)
	total := 0
	for f := 0; f < fs.N(); f++ {
		passed := drain(policed, f)
		if len(passed)+policed.DroppedAt(f) != n {
			t.Errorf("flow %d: %d passed + %d dropped != %d generated", f, len(passed), policed.DroppedAt(f), n)
		}
		total += policed.DroppedAt(f)
	}
	if policed.Dropped() != total {
		t.Errorf("Dropped() = %d, want %d", policed.Dropped(), total)
	}
	if total == 0 {
		t.Error("bursty traffic through a tight trTCM should lose packets")
	}
}

// TestSchedulerDifferential pins the calendar-queue engine to the
// reference heap engine under the FP+WFQ DiffServ scheduler — the
// cross-package fixture the in-package sim differential tests cannot
// host (import cycle).
func TestSchedulerDifferential(t *testing.T) {
	mk := func(name string, class model.Class, cost model.Time, path ...model.NodeID) *model.Flow {
		f := model.UniformFlow(name, 40, 5, 0, cost, path...)
		f.Class = class
		return f
	}
	fs := model.MustNewFlowSet(model.Network{Lmin: 1, Lmax: 3}, []*model.Flow{
		mk("voice1", model.ClassEF, 2, 1, 2, 3),
		mk("voice2", model.ClassEF, 2, 3, 2, 1),
		mk("video", model.ClassAF, 5, 1, 2, 3),
		mk("bulk", model.ClassBE, 8, 2, 3),
	})
	for _, seed := range []int64{1, 2, 3} {
		src := func() sim.ScenarioSource { return sim.NewSporadicSource(fs, seed, 12, 6, 1) }
		cfg := sim.Config{
			NewScheduler:   Factory(DefaultWeights()),
			RetainPackets:  true,
			RecordServices: true,
		}
		fast, err := sim.NewEngine(fs, cfg).RunSource(t.Context(), src())
		if err != nil {
			t.Fatal(err)
		}
		// The reference engine only accepts materialized scenarios;
		// replay the same stream through one.
		sc := materialize(t, fs, src())
		ref, err := sim.NewEngine(fs, cfg).RunReference(t.Context(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Errorf("seed %d: engines diverge under the DiffServ scheduler", seed)
		}
	}
}

// materialize drains a source into an equivalent Scenario.
func materialize(tb testing.TB, fs *model.FlowSet, src sim.ScenarioSource) *sim.Scenario {
	tb.Helper()
	sc := &sim.Scenario{
		Gen:  make([][]model.Time, fs.N()),
		Jit:  make([][]model.Time, fs.N()),
		Proc: make([][][]model.Time, fs.N()),
		Link: make([][][]model.Time, fs.N()),
	}
	for f := 0; f < fs.N(); f++ {
		for _, spec := range drain(src, f) {
			sc.Gen[f] = append(sc.Gen[f], spec.Generated)
			sc.Jit[f] = append(sc.Jit[f], spec.Released-spec.Generated)
			sc.Proc[f] = append(sc.Proc[f], spec.Proc)
			sc.Link[f] = append(sc.Link[f], spec.Link)
		}
	}
	return sc
}

// podFlowSet builds pods disjoint Clos pods of mixed-class flows, their
// flows interleaved round-robin, so the simulator runs one shard per
// pod.
func podFlowSet(tb testing.TB, pods int) *model.FlowSet {
	tb.Helper()
	topo, err := workload.ClosTopology(2, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(pods)))
	var flows []*model.Flow
	for k := 0; k < 8; k++ {
		for p := 0; p < pods; p++ {
			sl := rng.Intn(4)
			path, err := topo.Route(workload.ClosHost(sl, rng.Intn(2)), workload.ClosHost((sl+1+rng.Intn(3))%4, rng.Intn(2)))
			if err != nil {
				tb.Fatal(err)
			}
			for i := range path {
				path[i] += model.NodeID(10000 * (p + 1))
			}
			f := model.UniformFlow(fmt.Sprintf("p%d.f%d", p, k), model.Time(40+rng.Intn(41)), 3, 0, model.Time(1+rng.Intn(4)), path...)
			f.Class = model.Class(rng.Intn(3))
			flows = append(flows, f)
		}
	}
	fs := model.MustNewFlowSet(model.Network{Lmin: 1, Lmax: 3}, model.EnforceAssumption1(flows))
	if _, nc := fs.Components(); nc != pods {
		tb.Fatalf("%d pods make %d components", pods, nc)
	}
	return fs
}

// TestShardedConditionedSources: with DiffServ router schedulers, a
// run over one shard per pod matches one event loop over the whole set
// (RecordServices keeps a run in one shard) for shaped and policed
// bursty traffic, and the reference engine for sporadic traffic, at
// GOMAXPROCS 1 and 8.
func TestShardedConditionedSources(t *testing.T) {
	sources := []struct {
		name string
		src  func(fs *model.FlowSet) sim.ScenarioSource
	}{
		{"sporadic", func(fs *model.FlowSet) sim.ScenarioSource { return sim.NewSporadicSource(fs, 2, 40, 6, 1) }},
		{"shaped", func(fs *model.FlowSet) sim.ScenarioSource {
			return ShapedSource(fs, sim.NewBurstySource(fs, 3, 40, 5),
				func(int) *TokenBucket { return &TokenBucket{Rate: 1, RatePeriod: 30, Burst: 2} })
		}},
		{"policed", func(fs *model.FlowSet) sim.ScenarioSource {
			return PolicedSource(fs, sim.NewBurstySource(fs, 4, 40, 5),
				func(int) *TRTCM { return &TRTCM{CIR: 1, CIRPeriod: 30, CBS: 2, PIR: 2, PIRPeriod: 30, PBS: 4} })
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, pods := range []int{3, 6} {
			fs := podFlowSet(t, pods)
			for _, s := range sources {
				cfg := sim.Config{NewScheduler: Factory(DefaultWeights()), RetainPackets: true}
				got, err := sim.NewEngine(fs, cfg).RunSource(t.Context(), s.src(fs))
				if err != nil {
					t.Fatal(err)
				}
				whole := cfg
				whole.RecordServices = true
				want, err := sim.NewEngine(fs, whole).RunSource(t.Context(), s.src(fs))
				if err != nil {
					t.Fatal(err)
				}
				want.Services = nil
				if !reflect.DeepEqual(want, got) {
					t.Errorf("procs %d, %d pods, %s: sharded run differs from one event loop", procs, pods, s.name)
				}
				if s.name != "sporadic" {
					continue
				}
				ref, err := sim.NewEngine(fs, cfg).RunReference(t.Context(), materialize(t, fs, s.src(fs)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("procs %d, %d pods: sharded run differs from the reference engine", procs, pods)
				}
			}
		}
	}
}
