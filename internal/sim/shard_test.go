package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// podSet builds pods disjoint Clos pods (4 spines, 6 leaves, 4 hosts
// per leaf), each carrying flowsPerPod east-west flows on its own node
// range, and interleaves the pods' flows round-robin so every shard is
// scattered across the flow indices. Links have delays in [0, 2], so
// sources sample link delays and zero-delay forwards occur; flows mix
// the three service classes.
func podSet(tb testing.TB, seed int64, pods, flowsPerPod int) *model.FlowSet {
	tb.Helper()
	topo, err := workload.ClosTopology(4, 6, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	perPod := make([][]*model.Flow, pods)
	for p := range perPod {
		for k := 0; k < flowsPerPod; k++ {
			sl := rng.Intn(6)
			dl := (sl + 1 + rng.Intn(5)) % 6
			path, err := topo.Route(workload.ClosHost(sl, rng.Intn(4)), workload.ClosHost(dl, rng.Intn(4)))
			if err != nil {
				tb.Fatal(err)
			}
			for i := range path {
				path[i] += model.NodeID(10000 * (p + 1))
			}
			f := model.UniformFlow(fmt.Sprintf("p%d.f%d", p, k),
				model.Time(40+rng.Intn(41)), model.Time(rng.Intn(6)), 0, model.Time(1+rng.Intn(3)), path...)
			f.Class = model.Class(rng.Intn(3))
			perPod[p] = append(perPod[p], f)
		}
	}
	var flows []*model.Flow
	for k := 0; k < flowsPerPod; k++ {
		for _, fl := range perPod {
			flows = append(flows, fl[k])
		}
	}
	fs, err := model.NewFlowSetLax(model.Network{Lmin: 0, Lmax: 2}, flows)
	if err != nil {
		tb.Fatal(err)
	}
	if _, nc := fs.Components(); nc != pods {
		tb.Fatalf("%d pods make %d components", pods, nc)
	}
	return fs
}

// oneShard runs src in one event loop over the whole set:
// RecordServices keeps a run in one shard, because its log is in
// global event order. The log is dropped so the result compares with a
// sharded run's.
func oneShard(tb testing.TB, fs *model.FlowSet, cfg Config, src ScenarioSource) (*Result, error) {
	tb.Helper()
	cfg.RecordServices = true
	eng := NewEngine(fs, cfg)
	if len(eng.shards) != 1 {
		tb.Fatalf("RecordServices engine has %d shards, want 1", len(eng.shards))
	}
	res, err := eng.RunSource(context.Background(), src)
	if res != nil {
		res.Services = nil
	}
	return res, err
}

// materialize drains src into the equivalent Scenario, for the
// reference engine. A source gives every packet of a flow per-hop
// samples or none.
func materialize(fs *model.FlowSet, src ScenarioSource) *Scenario {
	sc := &Scenario{
		Gen:      make([][]model.Time, fs.N()),
		Jit:      make([][]model.Time, fs.N()),
		Proc:     make([][][]model.Time, fs.N()),
		Link:     make([][][]model.Time, fs.N()),
		TieBreak: make([]int, fs.N()),
	}
	var spec PacketSpec
	for f := range sc.Gen {
		sc.TieBreak[f] = src.TieBreak(f)
		for src.Next(f, &spec) {
			c := copySpec(&spec)
			sc.Gen[f] = append(sc.Gen[f], c.Generated)
			sc.Jit[f] = append(sc.Jit[f], c.Released-c.Generated)
			if c.Proc != nil {
				sc.Proc[f] = append(sc.Proc[f], c.Proc)
			}
			if c.Link != nil {
				sc.Link[f] = append(sc.Link[f], c.Link)
			}
		}
	}
	return sc
}

// atProcs runs body as one subtest per GOMAXPROCS setting: 1 runs the
// shards in turn on the calling goroutine, 8 gives every shard of a
// six-pod set its own worker.
func atProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			body(t)
		})
	}
}

// TestShardedMatchesWholeSet is the simulator's sharding differential:
// on three- and six-pod sets, a run over one shard per pod returns
// exactly the result of one event loop over the whole set, retained
// packet itineraries included, for every source the repository ships.
// Where the stream is a valid scenario, the reference heap engine must
// agree as well.
func TestShardedMatchesWholeSet(t *testing.T) {
	type row struct {
		name   string
		src    func(fs *model.FlowSet) ScenarioSource
		buffer int
		ref    bool // the stream is a valid scenario: check RunReference too
	}
	rows := []row{
		{"sporadic", func(fs *model.FlowSet) ScenarioSource { return NewSporadicSource(fs, 3, 40, 10, 1) }, 0, true},
		{"sporadic-tight", func(fs *model.FlowSet) ScenarioSource { return NewSporadicSource(fs, 4, 40, 0, 0) }, 0, true},
		{"bursty", func(fs *model.FlowSet) ScenarioSource { return NewBurstySource(fs, 5, 40, 4) }, 0, false},
		{"bursty-buffer3", func(fs *model.FlowSet) ScenarioSource { return NewBurstySource(fs, 6, 40, 6) }, 3, false},
		{"heavy-tail", func(fs *model.FlowSet) ScenarioSource { return NewHeavyTailSource(fs, 7, 40) }, 0, true},
		{"scenario", func(fs *model.FlowSet) ScenarioSource {
			return RandomScenario(fs, rand.New(rand.NewSource(8)), 30, 60, 12, 2).Source()
		}, 0, true},
	}
	atProcs(t, func(t *testing.T) {
		for _, pods := range []int{3, 6} {
			fs := podSet(t, int64(pods), pods, 10)
			for _, r := range rows {
				t.Run(fmt.Sprintf("pods%d/%s", pods, r.name), func(t *testing.T) {
					cfg := Config{RetainPackets: true, Buffer: r.buffer}
					eng := NewEngine(fs, cfg)
					if len(eng.shards) != pods {
						t.Fatalf("%d shards, want %d", len(eng.shards), pods)
					}
					got, err := eng.RunSource(t.Context(), r.src(fs))
					if err != nil {
						t.Fatal(err)
					}
					want, err := oneShard(t, fs, cfg, r.src(fs))
					if err != nil {
						t.Fatal(err)
					}
					if got.Delivered() == 0 {
						t.Fatal("nothing delivered")
					}
					if r.buffer > 0 && got.TotalDrops() == 0 {
						t.Error("finite buffers dropped nothing; the row tests no drop path")
					}
					requireSameResult(t, "one shard", want, got)
					if !r.ref {
						return
					}
					ref, err := eng.RunReference(t.Context(), materialize(fs, r.src(fs)))
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, "reference", ref, got)
				})
			}
		}
	})
}

func requireSameResult(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	switch {
	case !reflect.DeepEqual(want.PerFlow, got.PerFlow):
		t.Errorf("PerFlow differs from the %s run", what)
	case !reflect.DeepEqual(want.NodeBacklog, got.NodeBacklog):
		t.Errorf("NodeBacklog differs from the %s run:\nwant %v\ngot  %v", what, want.NodeBacklog, got.NodeBacklog)
	case want.Makespan != got.Makespan:
		t.Errorf("Makespan %d, %s run %d", got.Makespan, what, want.Makespan)
	default:
		t.Errorf("retained packets differ from the %s run", what)
	}
}

// periodicSource replays a fixed stream per flow through fakeSource:
// packet k of flow i is generated and released at (i mod 7) + k·T_i.
// fault, when set, rewrites a spec before it is queued.
func periodicSource(fs *model.FlowSet, n int, fault func(flow, k int, spec *PacketSpec)) *fakeSource {
	src := &fakeSource{nflows: fs.N(), specs: make([][]PacketSpec, fs.N()), pos: make([]int, fs.N())}
	for f, fl := range fs.Flows {
		for k := 0; k < n; k++ {
			t := model.Time(f%7) + model.Time(k)*fl.Period
			spec := PacketSpec{Seq: k, Generated: t, Released: t}
			if fault != nil {
				fault(f, k, &spec)
			}
			src.specs[f] = append(src.specs[f], spec)
		}
	}
	return src
}

// TestShardedErrorParity: a sharded run fails exactly as one event
// loop over the whole set does. Two shards breaking the source contract
// report the violation a single loop meets first, the smallest (tick,
// flow), whichever worker finds it first; an event budget counts the
// events of every shard.
func TestShardedErrorParity(t *testing.T) {
	fs := podSet(t, 11, 6, 8)
	comp, _ := fs.Components()
	// a < b are flows of different pods.
	a, b := 0, 1
	if comp[a] == comp[b] {
		t.Fatal("flows 0 and 1 share a pod")
	}
	const n = 20
	// badArity gives flow's packet k a proc vector of the wrong length;
	// backwards releases flow's packet k before packet k-1.
	badArity := func(flow, k int) func(int, int, *PacketSpec) {
		return func(f, j int, s *PacketSpec) {
			if f == flow && j == k {
				s.Proc = []model.Time{1}
			}
		}
	}
	backwards := func(flow, k int) func(int, int, *PacketSpec) {
		return func(f, j int, s *PacketSpec) {
			if f == flow && j == k {
				s.Released -= 2 * fs.Flows[f].Period
			}
		}
	}
	both := func(x, y func(int, int, *PacketSpec)) func(int, int, *PacketSpec) {
		return func(f, j int, s *PacketSpec) { x(f, j, s); y(f, j, s) }
	}
	rows := []struct {
		name  string
		fault func(int, int, *PacketSpec)
	}{
		{"later-flow-earlier-tick", both(badArity(a, 15), badArity(b, 3))},
		{"earlier-flow-earlier-tick", both(badArity(a, 3), backwards(b, 15))},
		{"two-kinds", both(backwards(a, 9), badArity(b, 9))},
	}
	atProcs(t, func(t *testing.T) {
		for _, r := range rows {
			t.Run(r.name, func(t *testing.T) {
				_, want := oneShard(t, fs, Config{}, periodicSource(fs, n, r.fault))
				if want == nil {
					t.Fatal("one-shard run accepted a broken stream")
				}
				for rep := 0; rep < 20; rep++ {
					_, got := NewEngine(fs, Config{}).RunSource(t.Context(), periodicSource(fs, n, r.fault))
					if got == nil || got.Error() != want.Error() {
						t.Fatalf("rep %d: sharded error %v, one shard %v", rep, got, want)
					}
				}
			})
		}

		// Every packet costs 2·hops events: a release, one completion
		// per hop and one arrival per forward.
		total := 0
		for _, f := range fs.Flows {
			total += 2 * len(f.Path) * n
		}
		for _, budget := range []int{total, total - 1, total / 3, 1} {
			t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
				cfg := Config{MaxEvents: budget}
				_, want := oneShard(t, fs, cfg, periodicSource(fs, n, nil))
				if (want == nil) != (budget == total) {
					t.Fatalf("one-shard run with %d of %d events: err %v", budget, total, want)
				}
				for rep := 0; rep < 20; rep++ {
					_, got := NewEngine(fs, cfg).RunSource(t.Context(), periodicSource(fs, n, nil))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("rep %d: sharded error %v, one shard %v", rep, got, want)
					}
				}
			})
		}
	})
}

// goroutineSource records, per flow (sources keep per-flow state
// only), the most goroutines alive when the engine pulls a packet.
type goroutineSource struct {
	ScenarioSource
	most []int
}

func (g *goroutineSource) Next(flow int, spec *PacketSpec) bool {
	g.most[flow] = max(g.most[flow], runtime.NumGoroutine())
	return g.ScenarioSource.Next(flow, spec)
}

// TestSingleShardRunsInline: a single-component set runs on the
// calling goroutine, while a multi-pod set at GOMAXPROCS ≥ 2 starts
// workers (which is what makes the first check meaningful).
func TestSingleShardRunsInline(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	extra := func(fs *model.FlowSet) int {
		src := &goroutineSource{ScenarioSource: NewSporadicSource(fs, 1, 20, 5, 0), most: make([]int, fs.N())}
		before := runtime.NumGoroutine()
		if _, err := NewEngine(fs, Config{}).RunSource(t.Context(), src); err != nil {
			t.Fatal(err)
		}
		return slices.Max(src.most) - before
	}
	if n := extra(model.PaperExample()); n > 0 {
		t.Errorf("single-component run: %d goroutines beyond the caller's", n)
	}
	if n := extra(podSet(t, 2, 3, 6)); n <= 0 {
		t.Error("three-pod run at GOMAXPROCS 4 started no worker")
	}
}

// TestStreamSourceSeedsLazily: building a generator seeds no flow's
// stream; each flow seeds on its first Next, on the worker that
// simulates it.
func TestStreamSourceSeedsLazily(t *testing.T) {
	fs := podSet(t, 3, 6, 10)
	if allocs := testing.AllocsPerRun(20, func() { NewSporadicSource(fs, 1, 10, 5, 1) }); allocs > 2 {
		t.Errorf("building a %d-flow source allocates %v times, want at most 2", fs.N(), allocs)
	}
}
