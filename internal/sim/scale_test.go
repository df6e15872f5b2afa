package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"trajan/internal/model"
)

// bigParkingLot builds a wide flow set: n flows aggregating down a
// long line, moderate utilization.
func bigParkingLot(tb testing.TB, nodes int) *model.FlowSet {
	tb.Helper()
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

// hopsPerRound is the packet-hops one packet per flow costs on
// bigParkingLot(nodes): paths of length nodes, nodes-1, …, 2.
func hopsPerRound(nodes int) int { return nodes*(nodes+1)/2 - 1 }

// TestEngineScales: a 50-node, 49-flow, 30-packets-per-flow run (tens
// of thousands of events) completes quickly and conserves packets.
func TestEngineScales(t *testing.T) {
	fs := bigParkingLot(t, 50)
	rng := rand.New(rand.NewSource(1))
	sc := RandomScenario(fs, rng, 30, 500, 100, 0)
	start := time.Now()
	res, err := NewEngine(fs, Config{}).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for i, st := range res.PerFlow {
		if st.Count != 30 {
			t.Fatalf("flow %d delivered %d/30", i, st.Count)
		}
	}
	if elapsed > 5*time.Second {
		t.Errorf("large run took %v", elapsed)
	}
	t.Logf("49 flows × 30 packets × up to 50 hops in %v", elapsed)
}

// TestReplicationSweepSmoke is the CI scale gate: about 10^6 simulated
// packet-hops across parallel replications, checked for conservation.
// It is the smallest run that would catch a pool or wheel leak that
// only shows at depth.
func TestReplicationSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	const (
		nodes = 33
		reps  = 4
	)
	fs := bigParkingLot(t, nodes)
	perFlow := 1_000_000 / reps / hopsPerRound(nodes)
	eng := NewEngine(fs, Config{})
	start := time.Now()
	batch, err := eng.RunReplications(t.Context(), reps, 0, func(rep int) ScenarioSource {
		return NewSporadicSource(fs, int64(rep), perFlow, 40, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := reps * perFlow * (nodes - 1); batch.Merged.Delivered() != want {
		t.Errorf("delivered %d packets, want %d", batch.Merged.Delivered(), want)
	}
	if batch.Merged.TotalDrops() != 0 {
		t.Errorf("%d drops under unlimited buffers", batch.Merged.TotalDrops())
	}
	t.Logf("%d packet-hops in %v across %d replications",
		reps*perFlow*hopsPerRound(nodes), time.Since(start), reps)
}

// benchSource builds the streaming workload of one benchmark
// iteration: sporadic traffic on bigParkingLot(nodes) totalling about
// `hops` packet-hops.
func benchSource(fs *model.FlowSet, nodes, hops int) ScenarioSource {
	return NewSporadicSource(fs, 1, hops/hopsPerRound(nodes), 40, 1)
}

// BenchmarkEngineThroughput measures simulated packet-hops per second
// on the wide aggregation topology at three workload tiers. Retention
// is off — the steady-state configuration — so allocs/op should not
// grow with the tier (pools recycle; what remains is per-run setup).
func BenchmarkEngineThroughput(b *testing.B) {
	const nodes = 33
	fs := bigParkingLot(b, nodes)
	for _, tier := range []struct {
		name string
		hops int
	}{
		{"hops1e5", 100_000},
		{"hops1e6", 1_000_000},
		{"hops1e7", 10_000_000},
	} {
		b.Run(tier.name, func(b *testing.B) {
			eng := NewEngine(fs, Config{})
			hops := tier.hops / hopsPerRound(nodes) * hopsPerRound(nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunSource(b.Context(), benchSource(fs, nodes, tier.hops)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hops*b.N)/b.Elapsed().Seconds(), "hops/s")
		})
	}
}

// BenchmarkReferenceThroughput is the same workload on the reference
// heap engine — the pre-optimization baseline the calendar queue is
// measured against (ISSUE acceptance: ≥10× at the 1e6 tier).
func BenchmarkReferenceThroughput(b *testing.B) {
	const nodes = 33
	fs := bigParkingLot(b, nodes)
	for _, tier := range []struct {
		name string
		hops int
	}{
		{"hops1e5", 100_000},
		{"hops1e6", 1_000_000},
	} {
		b.Run(tier.name, func(b *testing.B) {
			perFlow := tier.hops / hopsPerRound(nodes)
			sc := RandomScenario(fs, rand.New(rand.NewSource(1)), perFlow, 40, 1, 1)
			eng := NewEngine(fs, Config{})
			hops := perFlow * hopsPerRound(nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunReference(b.Context(), sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hops*b.N)/b.Elapsed().Seconds(), "hops/s")
		})
	}
}

// BenchmarkReplications measures the parallel replication harness: 8
// independent 125k-packet-hop replications per iteration (1e6 total),
// GOMAXPROCS workers.
func BenchmarkReplications(b *testing.B) {
	const (
		nodes = 33
		reps  = 8
	)
	fs := bigParkingLot(b, nodes)
	perFlow := 1_000_000 / reps / hopsPerRound(nodes)
	eng := NewEngine(fs, Config{})
	hops := reps * perFlow * hopsPerRound(nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunReplications(b.Context(), reps, 0, func(rep int) ScenarioSource {
			return NewSporadicSource(fs, int64(rep), perFlow, 40, 1)
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(hops*b.N)/b.Elapsed().Seconds(), "hops/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkEngineComponents is the simulator side of the
// component-count sweep: pods disjoint Clos pods of 30 flows, 100
// sporadic packets per flow, so the work grows linearly with the pod
// count. A run simulates one shard per pod on min(GOMAXPROCS, pods)
// workers; ns/op divided by the pod count falls as workers join.
func BenchmarkEngineComponents(b *testing.B) {
	for _, pods := range []int{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("pods%d", pods), func(b *testing.B) {
			fs := podSet(b, 1, pods, 30)
			eng := NewEngine(fs, Config{})
			hops := 0
			for _, f := range fs.Flows {
				hops += 100 * len(f.Path)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunSource(b.Context(), NewSporadicSource(fs, 1, 100, 10, 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hops*b.N)/b.Elapsed().Seconds(), "hops/s")
		})
	}
}
