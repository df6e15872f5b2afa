// Package trajan_test hosts the experiment benchmark harness: one
// benchmark per table/figure of DESIGN.md's experiment index (E1–E10).
// Each benchmark regenerates its experiment end to end, so
// `go test -bench=. -benchmem` both times the analyses and re-validates
// the experiment pipeline; the rendered artifacts themselves come from
// `go run ./cmd/paper`.
package trajan_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"trajan/internal/experiments"
	"trajan/internal/feasibility"
	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/netcalc"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// BenchmarkTable2_Trajectory times the full Property-2 analysis of the
// paper example (E1).
func BenchmarkTable2_Trajectory(b *testing.B) {
	fs := model.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trajectory.Analyze(fs, trajectory.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Holistic times the holistic baseline on the example
// (E1).
func BenchmarkTable2_Holistic(b *testing.B) {
	fs := model.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := holistic.Analyze(fs, holistic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_NetCalc times the network-calculus baseline on the
// example (E1/E6 comparator).
func BenchmarkTable2_NetCalc(b *testing.B) {
	fs := model.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netcalc.Analyze(fs, netcalc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathRelations regenerates the Figure-1 relation table (E2).
func BenchmarkPathRelations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure1Relations(); tab == nil {
			b.Fatal("no table")
		}
	}
}

// BenchmarkBusyPeriodTrace regenerates the Figure-2 busy-period
// trajectory trace from a full simulation (E3).
func BenchmarkBusyPeriodTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFRouter regenerates the Figure-3 router experiment:
// EF latency under FP+WFQ with background traffic (E4).
func BenchmarkEFRouter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3EFRouter(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFNonPreemption regenerates the E5 δ-sweep.
func BenchmarkEFNonPreemption(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EFNonPreemptionSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUtilizationSweep regenerates the E6 utilization sweep
// (all analyses plus the adversary at each load point).
func BenchmarkUtilizationSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UtilizationSweep(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLengthSweep regenerates the E7 hop-count sweep.
func BenchmarkPathLengthSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PathLengthSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoundness regenerates a reduced E8 soundness/tightness pass.
func BenchmarkSoundness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SoundnessTightness(2, 99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmission regenerates the E9 admission-capacity table.
func BenchmarkAdmission(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AdmissionCapacity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJitter regenerates the E10 jitter study.
func BenchmarkJitter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.JitterStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriorityLadder regenerates the E11 scheduler comparison.
func BenchmarkPriorityLadder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PriorityLadder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitRing regenerates the E12 split-flow experiment.
func BenchmarkSplitRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SplitRing(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceOfDeterminism regenerates the E13 statistics sweep.
func BenchmarkPriceOfDeterminism(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PriceOfDeterminism(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakdownUtilization regenerates the E14 breakdown study.
func BenchmarkBreakdownUtilization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BreakdownUtilization(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAFDX regenerates the E15 AFDX case study.
func BenchmarkAFDX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AFDXCaseStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeScaling times the trajectory analysis as the flow
// count grows — the ablation DESIGN.md calls out for the Smax fixpoint
// cost. Baselines per machine live in BENCH_trajectory.json.
func BenchmarkAnalyzeScaling(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 512, 1024} {
		fs := tandemSet(b, n, 5)
		b.Run(benchName("flows", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trajectory.Analyze(fs, trajectory.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzePathScaling holds the flow count and stretches the
// shared path — the per-view cost grows with both the prefix count and
// the per-prefix interference, so this is the hop-dominated profile.
func BenchmarkAnalyzePathScaling(b *testing.B) {
	for _, hops := range []int{5, 10, 20} {
		fs := tandemSet(b, 16, hops)
		b.Run(benchName("hops", hops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trajectory.Analyze(fs, trajectory.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzerReuse times the amortized admission-control profile:
// one Analyzer per flow set, then repeated per-flow queries against the
// converged Smax table (the steady state of AnalyzeSensitivity and the
// capacity experiments).
func BenchmarkAnalyzerReuse(b *testing.B) {
	for _, n := range []int{8, 32} {
		fs := tandemSet(b, n, 5)
		b.Run(benchName("flows", n), func(b *testing.B) {
			a, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Bounds(); err != nil { // pay the fixed point up front
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
	}
}

// BenchmarkColdPods times the offline verification profile: the cold
// combined analysis (trajectory, holistic, netcalc) of disjoint
// leaf-spine pods. Each op analyses a fresh FlowSet, so the lazily built
// node index is paid inside the loop. podsN costs about N times pods1
// when every layer is linear in the pod count.
func BenchmarkColdPods(b *testing.B) {
	for _, n := range []int{1, 2, 3, 6} {
		fs, _ := podSets(b, n, 1)
		b.Run(benchName("pods", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coldCombined(fs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldCombined runs the combined analysis at the given Parallelism on a
// fresh copy of fs, whose node index and relation table are not built
// yet.
func coldCombined(fs *model.FlowSet, workers int) (*feasibility.BackendResult, error) {
	idx := make([]int, fs.N())
	for i := range idx {
		idx[i] = i
	}
	fresh, err := fs.Subset(idx)
	if err != nil {
		return nil, err
	}
	return feasibility.AnalyzeBackend(context.Background(), fresh, feasibility.BackendCombined, trajectory.Options{Parallelism: workers})
}

// podSets draws pods disjoint leaf-spine pods (4 spines, 6 leaves, 4
// hosts per leaf, 30 east-west flows each, the offline verification
// shape), pod p's nodes moved into its own range. It returns the union
// and each pod as its own set, all split for Assumption 1.
func podSets(tb testing.TB, pods int, seed int64) (*model.FlowSet, []*model.FlowSet) {
	tb.Helper()
	topo, err := workload.ClosTopology(4, 6, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var union []*model.Flow
	var out []*model.FlowSet
	for p := 0; p < pods; p++ {
		var flows []*model.Flow
		for k := 0; k < 30; k++ {
			sl := rng.Intn(6)
			dl := (sl + 1 + rng.Intn(5)) % 6
			path, err := topo.Route(workload.ClosHost(sl, rng.Intn(4)), workload.ClosHost(dl, rng.Intn(4)))
			if err != nil {
				tb.Fatal(err)
			}
			for i := range path {
				path[i] += model.NodeID(10000 * (p + 1))
			}
			flows = append(flows, model.UniformFlow(fmt.Sprintf("p%d.f%d", p, k),
				model.Time(150+rng.Intn(151)), model.Time(rng.Intn(3)), 0, model.Time(1+rng.Intn(3)), path...))
		}
		fs, err := model.NewFlowSet(model.UnitDelayNetwork(), model.EnforceAssumption1(flows))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, fs)
		union = append(union, flows...)
	}
	all, err := model.NewFlowSet(model.UnitDelayNetwork(), model.EnforceAssumption1(union))
	if err != nil {
		tb.Fatal(err)
	}
	return all, out
}

func tandemSet(tb testing.TB, n, hops int) *model.FlowSet {
	tb.Helper()
	flows := make([]*model.Flow, n)
	path := make([]model.NodeID, hops)
	for i := range path {
		path[i] = model.NodeID(i + 1)
	}
	for k := range flows {
		flows[k] = model.UniformFlow(
			benchName("f", k), model.Time(10*n), 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%10]}, buf...)
		n /= 10
	}
	return prefix + string(buf)
}

// staggeredSet builds n flows where flow k spans nodes k+1..k+hops:
// interference is local (a flow meets only its 2·(hops-1) path
// neighbors), the regime where delta re-analysis pays — an admission
// dirties one closure, not the whole set.
func staggeredSet(tb testing.TB, n, hops int) *model.FlowSet {
	tb.Helper()
	flows := make([]*model.Flow, n)
	for k := range flows {
		path := make([]model.NodeID, hops)
		for i := range path {
			path[i] = model.NodeID(k + i + 1)
		}
		flows[k] = model.UniformFlow(
			benchName("f", k), model.Time(10*hops), 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// probeFlow is the admission candidate the churn benchmarks test: a
// flow across the middle of the staggered fabric.
func probeFlow(n, hops int) *model.Flow {
	path := make([]model.NodeID, hops)
	for i := range path {
		path[i] = model.NodeID(n/2 + i + 1)
	}
	return model.UniformFlow("probe", model.Time(10*hops), 0, 0, 2, path...)
}

// BenchmarkAdmissionChurn times the warm admission loop: one persistent
// Analyzer, each iteration admitting a candidate (AddFlow → delta
// re-analysis seeded from the converged table), querying bounds, and
// evicting it again (snapshot restore). Compare against
// BenchmarkAdmissionCold for the same decision made from scratch.
func BenchmarkAdmissionChurn(b *testing.B) {
	for _, n := range []int{16, 64} {
		fs := staggeredSet(b, n, 5)
		b.Run(benchName("flows", n), func(b *testing.B) {
			a := warmAnalyzer(b, fs, trajectory.Options{})
			probe := probeFlow(n, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churnOnce(b, a, probe)
			}
		})
	}
}

// BenchmarkAdmissionCold is the same admission decision without the
// warm engine: rebuild the flow set and a fresh Analyzer per candidate.
// This is what every admission cost before the delta layer existed.
func BenchmarkAdmissionCold(b *testing.B) {
	for _, n := range []int{16, 64} {
		base := staggeredSet(b, n, 5)
		b.Run(benchName("flows", n), func(b *testing.B) {
			probe := probeFlow(n, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				flows := make([]*model.Flow, 0, n+1)
				for _, f := range base.Flows {
					flows = append(flows, f.Clone())
				}
				flows = append(flows, probe.Clone())
				fs, err := model.NewFlowSet(base.Net, flows)
				if err != nil {
					b.Fatal(err)
				}
				a, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Bounds(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteAdmit times one full auto-route admission decision
// against a warm analyzer on a 3-spine Clos fabric: enumerate the k
// shortest paths, score every candidate as one parallel what-if batch
// of copy-on-write forks, and pick the winner. This is the per-request
// cost of `/v1/admit?route=auto` after the snapshot publish.
func BenchmarkRouteAdmit(b *testing.B) {
	topo, err := workload.ClosTopology(3, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string, sl, dl int, period, cost model.Time) *model.Flow {
		p, err := topo.Route(workload.ClosHost(sl, 0), workload.ClosHost(dl, 0))
		if err != nil {
			b.Fatal(err)
		}
		return model.UniformFlow(name, period, 0, 0, cost, p...)
	}
	base := []*model.Flow{
		mk("a", 0, 1, 60, 9),
		mk("b", 1, 2, 70, 11),
		mk("c", 2, 3, 80, 7),
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), base)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			a, err := trajectory.NewAnalyzer(fs, trajectory.Options{Parallelism: workers})
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
	}
}

// BenchmarkWhatIfBatch times a parallel 8-candidate what-if batch
// against one converged base (the "which of these calls fit" query).
// The traced case installs the metrics registry as the tracer, as
// trajand does.
func BenchmarkWhatIfBatch(b *testing.B) {
	const n, hops = 64, 5
	fs := staggeredSet(b, n, hops)
	for _, c := range []struct {
		name string
		opt  trajectory.Options
	}{
		{"workers1", trajectory.Options{Parallelism: 1}},
		{"workers4", trajectory.Options{Parallelism: 4}},
		{"traced", trajectory.Options{Parallelism: 4, Tracer: obs.NewMetrics()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := warmAnalyzer(b, fs, c.opt)
			cands := make([]trajectory.Candidate, 8)
			for k := range cands {
				path := make([]model.NodeID, hops)
				for i := range path {
					path[i] = model.NodeID(k*(n/8) + i + 1)
				}
				cands[k] = trajectory.Candidate{Add: model.UniformFlow(
					benchName("cand", k), model.Time(10*hops), 0, 0, 2, path...)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, o := range a.WhatIf(cands) {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
		})
	}
}
