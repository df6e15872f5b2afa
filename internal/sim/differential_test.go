package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"trajan/internal/model"
)

// differentialFixtures enumerates scenarios that stress every ordering
// rule the two engines must agree on: same-tick ties across flows,
// scheduler tie-breaks, jitter-inverted release order, zero-delay
// links, sampled processing times, link-FIFO clamping, and a wide
// aggregation topology.
func differentialFixtures(tb testing.TB) []struct {
	name string
	fs   *model.FlowSet
	sc   *Scenario
} {
	tb.Helper()
	var out []struct {
		name string
		fs   *model.FlowSet
		sc   *Scenario
	}
	add := func(name string, fs *model.FlowSet, sc *Scenario) {
		out = append(out, struct {
			name string
			fs   *model.FlowSet
			sc   *Scenario
		}{name, fs, sc})
	}

	paper := model.PaperExample()
	scp := PeriodicScenario(paper, []model.Time{0, 3, 5, 7, 11}, 4)
	scp.TieBreak = []int{2, 1, 3, 5, 4}
	add("paper-periodic", paper, scp)

	sync := PeriodicScenario(paper, nil, 3)
	add("paper-synchronized", paper, sync)

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("paper-random-%d", seed), paper,
			RandomScenario(paper, rng, 6, 50, 8, 2))
	}

	// Release jitter larger than the period inverts release order
	// relative to generation order — the streaming adapter must re-sort.
	fj1 := model.UniformFlow("a", 5, 20, 0, 2, 1, 2)
	fj2 := model.UniformFlow("b", 5, 20, 0, 2, 2, 1)
	fsj := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{fj1, fj2})
	scj := &Scenario{
		Gen: [][]model.Time{{0, 5, 10, 15}, {0, 5, 10, 15}},
		Jit: [][]model.Time{{20, 3, 0, 6}, {1, 19, 2, 0}},
	}
	add("jitter-inversion", fsj, scj)

	// Zero-delay links exercise same-tick forwarded arrivals.
	fz1 := model.UniformFlow("z1", 10, 0, 0, 2, 1, 2, 3)
	fz2 := model.UniformFlow("z2", 10, 0, 0, 2, 3, 2, 1)
	fsz := model.MustNewFlowSet(model.Network{Lmin: 0, Lmax: 2}, []*model.Flow{fz1, fz2})
	scz := RandomScenario(fsz, rand.New(rand.NewSource(7)), 5, 12, 4, 1)
	add("zero-delay-links", fsz, scz)

	wide := bigParkingLot(tb, 8)
	scw := RandomScenario(wide, rand.New(rand.NewSource(5)), 6, 60, 15, 1)
	add("parking-lot", wide, scw)

	return out
}

// TestDifferentialEngines pins the calendar-queue engine byte-identical
// to the reference heap engine: with retention and service logging on,
// the two Results must be reflect.DeepEqual on every fixture — same
// packet itineraries, same service order, same stats, same backlog
// maxima. Run at GOMAXPROCS 1 and 8 (both engines are serial; under
// -race this guards against accidental shared state).
func TestDifferentialEngines(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, fx := range differentialFixtures(t) {
				t.Run(fx.name, func(t *testing.T) {
					cfg := Config{RetainPackets: true, RecordServices: true}
					fast, err := NewEngine(fx.fs, cfg).Run(fx.sc)
					if err != nil {
						t.Fatalf("calendar engine: %v", err)
					}
					ref, err := NewEngine(fx.fs, cfg).RunReference(t.Context(), fx.sc)
					if err != nil {
						t.Fatalf("reference engine: %v", err)
					}
					if !reflect.DeepEqual(ref, fast) {
						t.Errorf("engines diverge")
						if !reflect.DeepEqual(ref.PerFlow, fast.PerFlow) {
							t.Errorf("PerFlow:\nref  %+v\nfast %+v", ref.PerFlow, fast.PerFlow)
						}
						if !reflect.DeepEqual(ref.Services, fast.Services) {
							t.Errorf("Services diverge (ref %d, fast %d records)", len(ref.Services), len(fast.Services))
							for i := range ref.Services {
								if i < len(fast.Services) && ref.Services[i] != fast.Services[i] {
									t.Errorf("first divergence at service %d:\nref  %+v\nfast %+v", i, ref.Services[i], fast.Services[i])
									break
								}
							}
						}
						if !reflect.DeepEqual(ref.NodeBacklog, fast.NodeBacklog) {
							t.Errorf("NodeBacklog:\nref  %+v\nfast %+v", ref.NodeBacklog, fast.NodeBacklog)
						}
						for i := range ref.Packets {
							if i < len(fast.Packets) && !reflect.DeepEqual(ref.Packets[i], fast.Packets[i]) {
								t.Errorf("first packet divergence at %d:\nref  %+v %+v\nfast %+v %+v",
									i, ref.Packets[i], ref.Packets[i].Hops, fast.Packets[i], fast.Packets[i].Hops)
								break
							}
						}
					}
				})
			}
		})
	}
}

// TestDifferentialStreamedScenario: running a materialized scenario
// through RunSource (the streaming path the generators use) matches
// Run exactly — the adapter loses nothing.
func TestDifferentialStreamedScenario(t *testing.T) {
	fs := model.PaperExample()
	sc := RandomScenario(fs, rand.New(rand.NewSource(11)), 8, 40, 6, 1)
	cfg := Config{RetainPackets: true, RecordServices: true}
	direct, err := NewEngine(fs, cfg).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := NewEngine(fs, cfg).RunSource(t.Context(), sc.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, streamed) {
		t.Error("Run and RunSource diverge on the same scenario")
	}
}

// TestReferenceRejectsBuffers: the reference engine models lossless
// nodes only.
func TestReferenceRejectsBuffers(t *testing.T) {
	fs := model.PaperExample()
	eng := NewEngine(fs, Config{Buffer: 2})
	if _, err := eng.RunReference(t.Context(), PeriodicScenario(fs, nil, 1)); err == nil {
		t.Error("reference engine accepted finite buffers")
	}
}
