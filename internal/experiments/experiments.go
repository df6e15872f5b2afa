// Package experiments regenerates every table and figure of the paper
// (and the extension experiments of DESIGN.md) as rendered tables and
// CSV series. It is the shared engine behind cmd/paper and the
// top-level benchmark suite: each E* function is one experiment.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"trajan/internal/adversary"
	"trajan/internal/diffserv"
	"trajan/internal/ef"
	"trajan/internal/feasibility"
	"trajan/internal/fpfifo"
	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/netcalc"
	"trajan/internal/report"
	"trajan/internal/sim"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// Table1 reproduces the paper's Table 1: the example's end-to-end
// deadlines.
func Table1() *report.Table {
	fs := model.PaperExample()
	t := report.NewTable("Table 1. End-to-end deadlines", "flow", "Di")
	for _, f := range fs.Flows {
		t.AddRow(f.Name, f.Deadline)
	}
	return t
}

// Table2 reproduces the paper's Table 2: worst-case end-to-end response
// times under the trajectory and holistic analyses, next to the
// published rows, with feasibility verdicts and the improvement ratio.
func Table2() (*report.Table, error) {
	fs := model.PaperExample()
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	hol, err := holistic.Analyze(fs, holistic.Options{})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 2. End-to-end response times (this repo vs published)",
		"flow", "Di", "trajectory", "holistic", "improv%", "traj-feasible", "hol-feasible", "paper-traj", "paper-hol")
	for i, f := range fs.Flows {
		imp := 100 * float64(hol.Bounds[i]-traj.Bounds[i]) / float64(hol.Bounds[i])
		t.AddRow(f.Name, f.Deadline, traj.Bounds[i], hol.Bounds[i],
			fmt.Sprintf("%.0f", imp),
			traj.Bounds[i] <= f.Deadline, hol.Bounds[i] <= f.Deadline,
			model.PaperTrajectoryBounds[i], model.PaperHolisticBounds[i])
	}
	return t, nil
}

// Figure1Relations reproduces Figure 1's semantics: the path-relation
// anchors (first/last in both directions, same/reverse) for every
// intersecting pair of the example.
func Figure1Relations() *report.Table {
	fs := model.PaperExample()
	t := report.NewTable("Figure 1. Path relations of the example",
		"pair", "first_ji", "last_ji", "first_ij", "last_ij", "direction")
	for i := range fs.Flows {
		for j := range fs.Flows {
			if i == j {
				continue
			}
			r := fs.Relation(i, j)
			if !r.Intersects {
				continue
			}
			dir := "same"
			if !r.SameDirection {
				dir = "reverse"
			}
			t.AddRow(fmt.Sprintf("(%s,%s)", fs.Flows[i].Name, fs.Flows[j].Name),
				r.FirstJI, r.LastJI, r.FirstIJ, r.LastIJ, dir)
		}
	}
	return t
}

// Figure2Trace reproduces Figure 2's semantics: the busy-period chain
// of a packet of τ3 under the synchronized-release scenario, walked
// backwards from the last node exactly as the trajectory analysis does.
func Figure2Trace() (string, error) {
	fs := model.PaperExample()
	eng := sim.NewEngine(fs, sim.Config{RecordServices: true, RetainPackets: true})
	sc := sim.PeriodicScenario(fs, nil, 2)
	res, err := eng.Run(sc)
	if err != nil {
		return "", err
	}
	return sim.TrajectoryTrace(fs, res, 2, 0)
}

// Figure3EFRouter reproduces Figure 3's semantics: the DiffServ router
// (EF at fixed priority, AF/BE under WFQ) driven in the simulator. It
// reports the EF flows' observed worst responses with and without
// lower-class background, next to the Property-3 bound.
func Figure3EFRouter() (*report.Table, error) {
	p := workload.VoIPParams{
		Calls: 3, Hops: 4, Period: 30, Cost: 2, Deadline: 60,
		BackgroundCost: 11, BackgroundPeriod: 25,
	}
	fs, err := workload.VoIP(p)
	if err != nil {
		return nil, err
	}
	res, err := ef.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(fs, sim.Config{NewScheduler: diffserv.Factory(diffserv.DefaultWeights())})
	worst := make([]model.Time, fs.N())
	for off := model.Time(0); off < 16; off++ {
		offsets := make([]model.Time, fs.N())
		for i := range offsets {
			offsets[i] = (off * model.Time(i+1)) % 13
		}
		sc := sim.PeriodicScenario(fs, offsets, 4)
		r, err := eng.Run(sc)
		if err != nil {
			return nil, err
		}
		for i := range worst {
			if r.PerFlow[i].MaxResponse > worst[i] {
				worst[i] = r.PerFlow[i].MaxResponse
			}
		}
	}
	t := report.NewTable("Figure 3. EF under FP+WFQ: observed vs Property-3 bound",
		"flow", "class", "delta", "observed", "bound")
	for k, idx := range res.EFIndex {
		t.AddRow(fs.Flows[idx].Name, fs.Flows[idx].Class, res.Deltas[k],
			worst[idx], res.Trajectory.Bounds[k])
	}
	return t, nil
}

// EFNonPreemptionSweep is experiment E5: the EF bound as the non-EF
// packet size grows (the δi effect of Lemma 4), trajectory vs holistic.
func EFNonPreemptionSweep() (*report.CSV, error) {
	csv := report.NewCSV("background_cost", "delta", "trajectory_bound", "holistic_bound")
	for bc := model.Time(1); bc <= 25; bc += 2 {
		voice := model.UniformFlow("v", 60, 0, 0, 2, 1, 2, 3, 4)
		bulk := model.UniformFlow("bulk", 60, 0, 0, bc, 1, 2, 3, 4)
		bulk.Class = model.ClassBE
		fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{voice, bulk})
		if err != nil {
			return nil, err
		}
		res, err := ef.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		csv.AddRow(bc, res.Deltas[0], res.Trajectory.Bounds[0], res.Holistic.Bounds[0])
	}
	return csv, nil
}

// UtilizationSweep is experiment E6: the main flow's bound on a line
// network as utilization grows, across all four analyses plus the
// adversary's observed worst case.
func UtilizationSweep(seed int64) (*report.CSV, error) {
	csv := report.NewCSV("utilization", "trajectory", "holistic", "netcalc", "netcalc_pboo", "charny_leboudec", "observed")
	for _, period := range []model.Time{120, 80, 60, 48, 40, 34, 30, 27, 24} {
		fs, err := workload.LineCross(workload.LineCrossParams{
			Nodes: 5, CrossFlows: 3, CrossLen: 3,
			Period: period, Cost: 3,
		})
		if err != nil {
			return nil, err
		}
		util := fs.MaxUtilization()
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		hol, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			return nil, err
		}
		nc, err := netcalc.Analyze(fs, netcalc.Options{})
		if err != nil {
			return nil, err
		}
		pboo, err := netcalc.AnalyzePBOO(fs, netcalc.Options{})
		if err != nil {
			return nil, err
		}
		cl, err := netcalc.CharnyLeBoudec(fs)
		if err != nil {
			return nil, err
		}
		finds, err := adversary.Search(fs, adversary.Options{Seed: seed, Restarts: 6, Packets: 4, ClimbSteps: 16})
		if err != nil {
			return nil, err
		}
		csv.AddRow(fmt.Sprintf("%.3f", util),
			traj.Bounds[0], hol.Bounds[0], fmtBound(nc.Bounds[0]), fmtBound(pboo.Bounds[0]),
			fmtBound(cl.Bounds[0]), finds[0].MaxResponse)
	}
	return csv, nil
}

func fmtBound(b model.Time) string {
	if b >= model.TimeInfinity {
		return "inf"
	}
	return fmt.Sprintf("%d", b)
}

// PathLengthSweep is experiment E7: how the bounds scale with the main
// flow's hop count under fixed cross traffic.
func PathLengthSweep() (*report.CSV, error) {
	csv := report.NewCSV("hops", "trajectory", "holistic", "ratio")
	for hops := 2; hops <= 12; hops++ {
		fs, err := workload.LineCross(workload.LineCrossParams{
			Nodes: hops, CrossFlows: 3, CrossLen: 2,
			Period: 60, Cost: 3,
		})
		if err != nil {
			return nil, err
		}
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		hol, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			return nil, err
		}
		csv.AddRow(hops, traj.Bounds[0], hol.Bounds[0],
			fmt.Sprintf("%.2f", float64(hol.Bounds[0])/float64(traj.Bounds[0])))
	}
	return csv, nil
}

// SoundnessTightness is experiment E8: over random flow sets, verify
// observed ≤ bound and report the tightness ratio per trial.
func SoundnessTightness(trials int, seed int64) (*report.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := report.NewTable("E8. Soundness and tightness over random sets",
		"trial", "flows", "util", "max_observed/bound", "violations")
	for trial := 0; trial < trials; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes: 5 + rng.Intn(4), Flows: 3 + rng.Intn(4),
			MaxUtilization: 0.35 + 0.25*rng.Float64(),
			CostLo:         1, CostHi: 4,
			JitterHi:     2,
			AllowReverse: true,
		})
		if err != nil {
			return nil, err
		}
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		finds, err := adversary.SearchAnnealed(fs,
			adversary.Options{Seed: int64(trial), Restarts: 6, Packets: 4, ClimbSteps: 20}, 40)
		if err != nil {
			return nil, err
		}
		worstRatio := 0.0
		violations := 0
		for i, f := range finds {
			r := float64(f.MaxResponse) / float64(traj.Bounds[i])
			if r > worstRatio {
				worstRatio = r
			}
			if f.MaxResponse > traj.Bounds[i] {
				violations++
			}
		}
		t.AddRow(trial, fs.N(), fmt.Sprintf("%.2f", fs.MaxUtilization()),
			fmt.Sprintf("%.2f", worstRatio), violations)
	}
	return t, nil
}

// AdmissionCapacity is experiment E9: how many identical VoIP calls
// each analysis admits on a 4-hop backbone before a deadline breaks.
func AdmissionCapacity() (*report.Table, error) {
	const (
		hops     = 4
		period   = 50
		cost     = 2
		deadline = 40
	)
	path := make([]model.NodeID, hops)
	for i := range path {
		path[i] = model.NodeID(i)
	}
	mkCall := func(k int) *model.Flow {
		return model.UniformFlow(fmt.Sprintf("call%d", k), period, 0, deadline, cost, path...)
	}
	mkSet := func(n int) (*model.FlowSet, error) {
		flows := make([]*model.Flow, n)
		for k := range flows {
			flows[k] = mkCall(k)
		}
		return model.NewFlowSet(model.UnitDelayNetwork(), flows)
	}
	capacity := func(analyze func(fs *model.FlowSet) ([]model.Time, error)) (int, error) {
		for n := 1; n <= 64; n++ {
			fs, err := mkSet(n)
			if err != nil {
				return 0, err
			}
			bounds, err := analyze(fs)
			if err != nil {
				return n - 1, nil // divergence = refusal
			}
			rep, err := feasibility.Check(fs, bounds, nil, "cap")
			if err != nil {
				return 0, err
			}
			if !rep.AllFeasible {
				return n - 1, nil
			}
		}
		return 64, nil
	}
	t := report.NewTable("E9. Admission capacity (identical calls, 4 hops, D=40)",
		"method", "calls admitted")
	// The trajectory arm runs the admission core as deployed: one warm
	// analyzer, one admission test per arriving call until the first
	// refusal. Each test is a delta re-analysis seeded from the previous
	// converged table rather than a cold rebuild of the whole set.
	trajCap, err := func() (int, error) {
		c, err := feasibility.NewController(model.UnitDelayNetwork(), trajectory.Options{}, "", nil, 0)
		if err != nil {
			return 0, err
		}
		for n := 0; n < 64; n++ {
			d, err := c.Admit(context.Background(), mkCall(n), false)
			if err != nil {
				return 0, err
			}
			if d.Outcome != "admitted" {
				return n, nil
			}
		}
		return 64, nil
	}()
	if err != nil {
		return nil, err
	}
	holCap, err := capacity(func(fs *model.FlowSet) ([]model.Time, error) {
		r, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			return nil, err
		}
		return r.Bounds, nil
	})
	if err != nil {
		return nil, err
	}
	ncCap, err := capacity(func(fs *model.FlowSet) ([]model.Time, error) {
		r, err := netcalc.Analyze(fs, netcalc.Options{})
		if err != nil {
			return nil, err
		}
		return r.Bounds, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("trajectory", trajCap)
	t.AddRow("holistic", holCap)
	t.AddRow("network calculus", ncCap)
	return t, nil
}

// JitterStudy is experiment E10: end-to-end jitter (Definition 2)
// across the utilization sweep of E6.
func JitterStudy() (*report.CSV, error) {
	csv := report.NewCSV("utilization", "trajectory_jitter", "holistic_jitter", "observed_jitter")
	for _, period := range []model.Time{120, 60, 40, 30, 24} {
		fs, err := workload.LineCross(workload.LineCrossParams{
			Nodes: 5, CrossFlows: 3, CrossLen: 3,
			Period: period, Cost: 3,
		})
		if err != nil {
			return nil, err
		}
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		hol, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			return nil, err
		}
		// Observe jitter under a randomized run (lower bound on true
		// jitter).
		eng := sim.NewEngine(fs, sim.Config{})
		sc := sim.RandomScenario(fs, rand.New(rand.NewSource(1)), 12, period, period/3, 0)
		res, err := eng.Run(sc)
		if err != nil {
			return nil, err
		}
		csv.AddRow(fmt.Sprintf("%.3f", fs.MaxUtilization()),
			traj.Jitters[0], hol.Jitters[0], res.PerFlow[0].Jitter())
	}
	return csv, nil
}

// PriorityLadder is experiment E11 (extension): the same flow
// population scheduled three ways — plain FIFO (trajectory bound),
// two-level EF/BE (Property 3), and a 3-level FP/FIFO ladder — showing
// how class separation trades the low classes' latency for the high
// class's. All bounds are checked against their schedulers in the
// simulator by the test suite.
func PriorityLadder() (*report.Table, error) {
	mk := func(name string, class model.Class, cost model.Time) *model.Flow {
		f := model.UniformFlow(name, 60, 0, 0, cost, 1, 2, 3)
		f.Class = class
		return f
	}
	flows := []*model.Flow{
		mk("voice", model.ClassEF, 2),
		mk("video", model.ClassAF, 4),
		mk("bulk", model.ClassBE, 9),
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		return nil, err
	}

	// Plain FIFO over everything.
	fifoRes, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	// Two-level: EF above the rest (Property 3 for voice only).
	efRes, err := ef.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	// Three-level FP/FIFO ladder.
	ladder, err := fpfifo.Analyze(fs, []int{2, 1, 0}, fpfifo.Options{})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("E11. One population, three schedulers (bounds per flow)",
		"flow", "class", "fifo", "ef-over-rest", "fp/fifo ladder")
	for i, f := range fs.Flows {
		efCell := "-"
		if b, ok := efRes.BoundOf(i); ok {
			efCell = fmt.Sprintf("%d", b)
		}
		t.AddRow(f.Name, f.Class, fifoRes.Bounds[i], efCell, ladder.Bounds[i])
	}
	return t, nil
}

// SplitRing is experiment E12 (extension): Assumption-1 splitting on
// overlapping ring arcs. The paper prescribes treating a re-crossing
// flow "as a new flow" without characterizing the new flow's arrivals;
// this experiment contrasts the naive per-fragment bounds with the
// jitter-chained parent bounds of trajectory.AnalyzeSplit and the worst
// response observed when simulating the ORIGINAL (unsplit) flows.
func SplitRing(seed int64) (*report.Table, error) {
	const nodes = 6
	mkArc := func(name string, start, length int) *model.Flow {
		arc := make([]model.NodeID, length)
		for i := range arc {
			arc[i] = model.NodeID((start + i) % nodes)
		}
		return model.UniformFlow(name, 50, 0, 0, 2, arc...)
	}
	orig := []*model.Flow{
		mkArc("arcA", 0, 5),
		mkArc("arcB", 4, 5),
		mkArc("arcC", 2, 4),
	}
	frags := model.EnforceAssumption1(orig)
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), frags)
	if err != nil {
		return nil, err
	}
	split, err := trajectory.AnalyzeSplit(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	bounds, err := split.BoundsFor(orig)
	if err != nil {
		return nil, err
	}

	// Simulate the original flows over an offset sweep.
	lax, err := model.NewFlowSetLax(model.UnitDelayNetwork(), orig)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(lax, sim.Config{})
	worst := make([]model.Time, len(orig))
	rng := rand.New(rand.NewSource(seed))
	for run := 0; run < 60; run++ {
		sc := sim.RandomScenario(lax, rng, 4, 50, 12, 0)
		r, err := eng.Run(sc)
		if err != nil {
			return nil, err
		}
		for i := range worst {
			if r.PerFlow[i].MaxResponse > worst[i] {
				worst[i] = r.PerFlow[i].MaxResponse
			}
		}
	}

	t := report.NewTable("E12. Ring arcs under Assumption-1 splitting",
		"flow", "fragments", "chained bound", "observed (unsplit sim)")
	for i, f := range orig {
		frag := 0
		for _, g := range fs.Flows {
			if p, ok := g.Parent(); ok && p == i {
				frag++
			}
		}
		t.AddRow(f.Name, frag, bounds[i], worst[i])
	}
	return t, nil
}

// PriceOfDeterminism is experiment E13 (extension): the gap between the
// deterministic worst-case bound and the sampled long-run behaviour
// (mean, p99, observed max) — what a deterministic SLA costs relative
// to statistical provisioning.
func PriceOfDeterminism() (*report.CSV, error) {
	csv := report.NewCSV("utilization", "bound", "observed_max", "p99", "p50", "mean")
	for _, period := range []model.Time{120, 60, 40, 30, 24} {
		fs, err := workload.LineCross(workload.LineCrossParams{
			Nodes: 5, CrossFlows: 3, CrossLen: 3,
			Period: period, Cost: 3,
		})
		if err != nil {
			return nil, err
		}
		traj, err := trajectory.Analyze(fs, trajectory.Options{})
		if err != nil {
			return nil, err
		}
		ds, err := sim.SteadyState(fs, 42, 400)
		if err != nil {
			return nil, err
		}
		d := ds[0]
		csv.AddRow(fmt.Sprintf("%.3f", fs.MaxUtilization()),
			traj.Bounds[0], d.Max, d.P99, d.P50, fmt.Sprintf("%.1f", d.Mean))
	}
	return csv, nil
}

// BreakdownUtilization is experiment E14 (extension): the classic
// breakdown-utilization metric — scale the load on a fixed topology
// until each analysis first declares a deadline miss. Higher breakdown
// utilization = less pessimism = more admitted load.
func BreakdownUtilization() (*report.Table, error) {
	// Template: 5-node line, main flow + 3 cross flows, deadline 3× the
	// unloaded traversal. The period scales down until infeasible.
	mk := func(period model.Time) (*model.FlowSet, error) {
		fs, err := workload.LineCross(workload.LineCrossParams{
			Nodes: 5, CrossFlows: 3, CrossLen: 3,
			Period: period, Cost: 3, Deadline: 60,
		})
		return fs, err
	}
	breakdown := func(analyze func(fs *model.FlowSet) ([]model.Time, error)) (float64, error) {
		lastOK := 0.0
		for period := model.Time(200); period >= 10; period -= 2 {
			fs, err := mk(period)
			if err != nil {
				return 0, err
			}
			bounds, err := analyze(fs)
			if err != nil {
				return lastOK, nil // divergence: past breakdown
			}
			rep, err := feasibility.Check(fs, bounds, nil, "bd")
			if err != nil {
				return 0, err
			}
			if !rep.AllFeasible {
				return lastOK, nil
			}
			lastOK = fs.MaxUtilization()
		}
		return lastOK, nil
	}

	t := report.NewTable("E14. Breakdown utilization (line/cross, D=60)",
		"method", "breakdown utilization")
	// The trajectory arm reuses one analyzer across the load sweep: the
	// topology is fixed, only periods shrink, so each step is a batch of
	// UpdateFlow calls against the previous converged state (views and
	// entry tables are shared — path lengths never change).
	traj, err := func() (float64, error) {
		lastOK := 0.0
		var a *trajectory.Analyzer
		for period := model.Time(200); period >= 10; period -= 2 {
			fs, err := mk(period)
			if err != nil {
				return 0, err
			}
			if a == nil {
				a, err = trajectory.NewAnalyzer(fs, trajectory.Options{})
				if err != nil {
					return 0, err
				}
			} else {
				for i := range fs.Flows {
					if err := a.UpdateFlow(i, fs.Flows[i]); err != nil {
						return 0, err
					}
				}
			}
			bounds, err := a.Bounds()
			if err != nil {
				return lastOK, nil // divergence: past breakdown
			}
			rep, err := feasibility.Check(fs, bounds, nil, "bd")
			if err != nil {
				return 0, err
			}
			if !rep.AllFeasible {
				return lastOK, nil
			}
			lastOK = fs.MaxUtilization()
		}
		return lastOK, nil
	}()
	if err != nil {
		return nil, err
	}
	hol, err := breakdown(func(fs *model.FlowSet) ([]model.Time, error) {
		r, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			return nil, err
		}
		return r.Bounds, nil
	})
	if err != nil {
		return nil, err
	}
	nc, err := breakdown(func(fs *model.FlowSet) ([]model.Time, error) {
		r, err := netcalc.Analyze(fs, netcalc.Options{})
		if err != nil {
			return nil, err
		}
		return r.Bounds, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("trajectory", fmt.Sprintf("%.2f", traj))
	t.AddRow("holistic", fmt.Sprintf("%.2f", hol))
	t.AddRow("network calculus", fmt.Sprintf("%.2f", nc))
	return t, nil
}

// AFDXCaseStudy is experiment E15 (extension): the trajectory
// approach's flagship application domain — AFDX virtual links (BAG =
// period, frame time = cost, end-system technological jitter), with
// per-BAG-class latency bounds and a simulator cross-check.
func AFDXCaseStudy() (*report.Table, error) {
	fs, err := workload.AFDX(workload.AFDXParams{
		VLs: 16, Switches: 4,
		FrameTicks: 12, TechJitter: 100, Deadline: 3000,
	})
	if err != nil {
		return nil, err
	}
	res, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	hol, err := holistic.Analyze(fs, holistic.Options{})
	if err != nil {
		return nil, err
	}
	// Observe a long sampled run.
	ds, err := sim.SteadyState(fs, 11, 40)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E15. AFDX case study (16 VLs, 4 switches, 1 tick = 1 µs)",
		"VL", "BAG", "trajectory", "holistic", "observed", "jitter bound")
	for i, f := range fs.Flows {
		if i%4 != 0 {
			continue // one representative per BAG class
		}
		if ds[i].Max > res.Bounds[i] {
			return nil, fmt.Errorf("AFDX: observed %d above bound %d", ds[i].Max, res.Bounds[i])
		}
		t.AddRow(f.Name, f.Period, res.Bounds[i], hol.Bounds[i], ds[i].Max, res.Jitters[i])
	}
	return t, nil
}

// PerHopBudgets is experiment E16 (extension): per-hop latency budget
// allocation for the paper example from the converged arrival bounds —
// how much of each flow's end-to-end budget each hop may consume
// (useful for switch buffer/queue dimensioning and for localizing
// which hop eats the budget).
func PerHopBudgets() (*report.Table, error) {
	fs := model.PaperExample()
	res, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E16. Per-hop arrival bounds (generation-based, ticks)",
		"flow", "node", "arrive-by", "hop share")
	for i, f := range fs.Flows {
		prev := model.Time(0)
		for k, h := range f.Path {
			ab := res.ArrivalBounds[i][k]
			t.AddRow(f.Name, h, ab, ab-prev)
			prev = ab
		}
	}
	return t, nil
}

// TightnessSweep (E17) drives the streaming replication harness on the
// paper example: independent replications per traffic model, merged
// statistics, and two accountings per model — per-flow worst observed
// response against the trajectory bound (tightness ratio), and per-node
// worst backlog against the configured buffer (occupancy ratio). The
// sporadic model respects the flow contract, so its observed responses
// must stay below the bounds and an unlimited-buffer run must not drop
// — both are checked and violations are errors, making the experiment
// a soundness gate as well as a measurement. The bursty model violates
// sporadic separation on purpose (ratios above 1 are meaningful there),
// and the shaped model shows a token-bucket conditioner taming it.
func TightnessSweep(reps, npackets int) (*report.Table, error) {
	fs := model.PaperExample()
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	run := func(buffer int, mk func(rep int) sim.ScenarioSource) (*sim.Result, error) {
		eng := sim.NewEngine(fs, sim.Config{Buffer: buffer})
		batch, err := eng.RunReplications(context.Background(), reps, 0, mk)
		if err != nil {
			return nil, err
		}
		return batch.Merged, nil
	}
	sporadic := func(rep int) sim.ScenarioSource {
		return sim.NewSporadicSource(fs, int64(rep+1), npackets, 10, 1)
	}
	bursty := func(rep int) sim.ScenarioSource {
		return sim.NewBurstySource(fs, int64(rep+1), npackets, 4)
	}
	shaped := func(rep int) sim.ScenarioSource {
		return diffserv.ShapedSource(fs, bursty(rep), func(i int) *diffserv.TokenBucket {
			f := fs.Flows[i]
			return &diffserv.TokenBucket{Rate: f.Cost[0], RatePeriod: f.Period, Burst: 2 * f.Cost[0]}
		})
	}

	probe, err := run(0, sporadic)
	if err != nil {
		return nil, err
	}
	if d := probe.TotalDrops(); d != 0 {
		return nil, fmt.Errorf("experiments: %d drops under unlimited buffers (simulator bug)", d)
	}
	for i, st := range probe.PerFlow {
		if st.MaxResponse > traj.Bounds[i] {
			return nil, fmt.Errorf("experiments: flow %s observed %d exceeds bound %d under in-contract traffic",
				fs.Flows[i].Name, st.MaxResponse, traj.Bounds[i])
		}
	}
	// Size finite buffers to the sporadic worst case: conformant
	// traffic just fits, bursts have to fight for the space.
	buffer := 1
	for _, b := range probe.NodeBacklog {
		if b.MaxPackets > buffer {
			buffer = b.MaxPackets
		}
	}

	t := report.NewTable(fmt.Sprintf("E17. Streaming tightness sweep (%d replications x %d packets/flow, buffer %d)",
		reps, npackets, buffer),
		"traffic", "subject", "observed", "limit", "ratio", "drops")
	addRows := func(name string, res *sim.Result, buffer int) {
		for i, st := range res.PerFlow {
			t.AddRow(name, fs.Flows[i].Name, st.MaxResponse, traj.Bounds[i],
				fmt.Sprintf("%.2f", float64(st.MaxResponse)/float64(traj.Bounds[i])), st.Drops)
		}
		for _, node := range fs.Nodes() {
			b, ok := res.NodeBacklog[node]
			if !ok {
				continue
			}
			limit := buffer
			occ := "n/a"
			if limit > 0 {
				occ = fmt.Sprintf("%.2f", float64(b.MaxPackets)/float64(limit))
			}
			t.AddRow(name, fmt.Sprintf("node %d", node), b.MaxPackets, limit, occ, b.Drops)
		}
	}
	addRows("sporadic", probe, 0)
	for _, c := range []struct {
		name string
		mk   func(rep int) sim.ScenarioSource
	}{{"bursty", bursty}, {"bursty+shaper", shaped}} {
		res, err := run(buffer, c.mk)
		if err != nil {
			return nil, err
		}
		addRows(c.name, res, buffer)
	}
	return t, nil
}

// BackendTightness (E18) races the selectable analysis backends —
// trajectory, holistic, netcalc, and their per-flow minimum (the
// combined backend) — on two topology families where they rank
// differently: a randomized 3×3 mesh with jitter and an AFDX
// dual-switch config. Every flow gets one CSV row with all four
// bounds, the winning backend with its margin, and a sampled simulator
// floor. Two invariants are enforced as errors, making the experiment
// the backend cross-validation gate CI runs: the combined bound never
// exceeds any single backend's, and no backend's bound falls below the
// observed worst case.
// RoutingRefusal is E19: refusal rates of direct-path vs auto-route
// admission on three topologies — a 3×3 mesh, the dual-column AFDX
// backbone, and a leaf-spine Clos fabric (the first fixture with real
// path diversity). Both arms replay the same demand sequence through
// the sequential cold admission oracle; the direct arm scores only the
// deterministic shortest path, the auto arm scores up to k=4 shortest
// candidates and admits on the best feasible one (ChooseRoute). The
// deterministic routing concentrates direct-path load (spine 0 on the
// Clos, column A on the AFDX), so the function gates the tentpole
// claims internally: on the Clos the auto arm must refuse strictly
// fewer demands, and at least one demand refused on its direct path
// must be admitted on an alternate.
func RoutingRefusal(seed int64) (*report.CSV, error) {
	net := model.UnitDelayNetwork()
	opt := trajectory.Options{}
	ctx := context.Background()

	type fixture struct {
		name    string
		topo    *model.Topology
		demands []*model.Flow // contracted on the deterministic direct path
	}
	var fixtures []fixture

	{
		topo := model.GridTopology(3, 3)
		rng := rand.New(rand.NewSource(seed))
		ends := [][2]model.NodeID{{0, 8}, {2, 6}, {6, 2}, {8, 0}, {0, 5}, {3, 8}, {2, 7}, {6, 1}}
		var demands []*model.Flow
		for k := 0; k < 16; k++ {
			e := ends[k%len(ends)]
			p, err := topo.Route(e[0], e[1])
			if err != nil {
				return nil, err
			}
			cost := 2 + model.Time(rng.Int63n(3))
			period := 40 + model.Time(rng.Int63n(40))
			demands = append(demands, model.UniformFlow(fmt.Sprintf("m%02d", k), period, 0, 30, cost, p...))
		}
		fixtures = append(fixtures, fixture{"mesh3x3", topo, demands})
	}
	{
		topo, err := workload.AFDXTopology(12, 3)
		if err != nil {
			return nil, err
		}
		var demands []*model.Flow
		for k := 0; k < 12; k++ {
			src, dst := model.NodeID(1000+k), model.NodeID(2000+k)
			p, err := topo.Route(src, dst)
			if err != nil {
				return nil, err
			}
			demands = append(demands, model.UniformFlow(fmt.Sprintf("vl%02d", k), 64, 0, 48, 4, p...))
		}
		fixtures = append(fixtures, fixture{"afdx3sw", topo, demands})
	}
	{
		topo, err := workload.ClosTopology(3, 6, 2)
		if err != nil {
			return nil, err
		}
		// One east-west demand per unordered leaf pair, all in the same
		// direction: distinct pairs keep Assumption 1 out of the way (two
		// same-pair flows on different spines would violate it and pin
		// every later same-pair demand to the first flow's spine), so the
		// arms differ by routing freedom alone.
		rng := rand.New(rand.NewSource(seed + 1))
		var demands []*model.Flow
		k := 0
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				src := workload.ClosHost(i, rng.Intn(2))
				dst := workload.ClosHost(j, rng.Intn(2))
				p, err := topo.Route(src, dst)
				if err != nil {
					return nil, err
				}
				cost := 3 + model.Time(rng.Int63n(3))
				period := 50 + model.Time(rng.Int63n(40))
				demands = append(demands, model.UniformFlow(fmt.Sprintf("c%02d", k), period, 0, 75, cost, p...))
				k++
			}
		}
		fixtures = append(fixtures, fixture{"clos3x6x2", topo, demands})
	}

	type outcome struct {
		admitted bool
		path     model.Path
	}
	run := func(fx fixture, k int) ([]outcome, error) {
		var admitted []*model.Flow
		res := make([]outcome, len(fx.demands))
		for i, f := range fx.demands {
			cfs := []*model.Flow{f.Clone()}
			if k > 1 {
				var err error
				cfs, err = feasibility.RouteCandidates(fx.topo, f, k)
				if err != nil {
					return nil, fmt.Errorf("E19 %s: %s: %w", fx.name, f.Name, err)
				}
			}
			scored := feasibility.ScoreRoutesCold(ctx, net, opt, admitted, cfs)
			win := feasibility.ChooseRoute(scored)
			if win < 0 {
				continue
			}
			admitted = append(admitted, scored[win].Flow)
			res[i] = outcome{admitted: true, path: scored[win].Path}
		}
		return res, nil
	}

	csv := report.NewCSV("fixture", "arm", "offered", "admitted", "refused", "refusal_rate", "rerouted")
	for _, fx := range fixtures {
		direct, err := run(fx, 1)
		if err != nil {
			return nil, err
		}
		auto, err := run(fx, feasibility.DefaultRouteK)
		if err != nil {
			return nil, err
		}
		row := func(arm string, res []outcome) (refused int) {
			admitted, rerouted := 0, 0
			for i, o := range res {
				if !o.admitted {
					refused++
					continue
				}
				admitted++
				if model.ComparePaths(o.path, fx.demands[i].Path) != 0 {
					rerouted++
				}
			}
			csv.AddRow(fx.name, arm, len(res), admitted, refused,
				fmt.Sprintf("%.3f", float64(refused)/float64(len(res))), rerouted)
			return refused
		}
		refusedDirect := row("direct", direct)
		refusedAuto := row("auto", auto)
		if fx.name == "clos3x6x2" {
			if refusedAuto >= refusedDirect {
				return nil, fmt.Errorf("E19 %s: auto refused %d, direct refused %d — auto must refuse strictly fewer",
					fx.name, refusedAuto, refusedDirect)
			}
			saved := false
			for i := range fx.demands {
				if !direct[i].admitted && auto[i].admitted &&
					model.ComparePaths(auto[i].path, fx.demands[i].Path) != 0 {
					saved = true
					break
				}
			}
			if !saved {
				return nil, fmt.Errorf("E19 %s: no demand refused on its direct path was admitted on an alternate", fx.name)
			}
		}
	}
	return csv, nil
}

func BackendTightness(seed int64, npackets int) (*report.CSV, error) {
	type fixture struct {
		name string
		fs   *model.FlowSet
	}
	mesh, err := workload.Mesh(rand.New(rand.NewSource(seed)), workload.MeshParams{
		Rows: 3, Cols: 3, Flows: 6,
		MaxUtilization: 0.5, CostLo: 1, CostHi: 3, JitterHi: 2,
	})
	if err != nil {
		return nil, err
	}
	afdx, err := workload.AFDX(workload.AFDXParams{
		VLs: 8, Switches: 2,
		FrameTicks: 12, TechJitter: 100, Deadline: 4000,
	})
	if err != nil {
		return nil, err
	}
	fixtures := []fixture{{"mesh3x3", mesh.Split}, {"afdx2sw", afdx}}

	backends := []feasibility.Backend{
		feasibility.BackendTrajectory, feasibility.BackendHolistic, feasibility.BackendNetcalc,
	}
	// The jittered mesh has long busy periods; give every backend the
	// same raised fixpoint budget.
	opt := trajectory.Options{MaxIterations: 4096}
	csv := report.NewCSV("fixture", "flow",
		"trajectory", "holistic", "netcalc", "combined", "winner", "margin", "sim_floor")
	fmtBound := func(t model.Time) string {
		if model.IsUnbounded(t) {
			return "inf"
		}
		return fmt.Sprintf("%d", t)
	}
	for _, fx := range fixtures {
		per := make(map[feasibility.Backend][]model.Time, len(backends))
		for _, b := range backends {
			res, err := feasibility.AnalyzeBackend(context.Background(), fx.fs, b, opt)
			if err != nil {
				return nil, fmt.Errorf("E18 %s: %s backend: %w", fx.name, b, err)
			}
			per[b] = res.Bounds
		}
		comb, err := feasibility.AnalyzeBackend(context.Background(), fx.fs, feasibility.BackendCombined, opt)
		if err != nil {
			return nil, fmt.Errorf("E18 %s: combined backend: %w", fx.name, err)
		}
		ds, err := sim.SteadyState(fx.fs, seed, npackets)
		if err != nil {
			return nil, fmt.Errorf("E18 %s: simulation: %w", fx.name, err)
		}
		for i, f := range fx.fs.Flows {
			for _, b := range backends {
				if comb.Bounds[i] > per[b][i] {
					return nil, fmt.Errorf("E18 %s: combined bound %d for %s above %s bound %d",
						fx.name, comb.Bounds[i], f.Name, b, per[b][i])
				}
				if per[b][i] < ds[i].Max {
					return nil, fmt.Errorf("E18 %s: %s bound %d for %s below observed %d",
						fx.name, b, per[b][i], f.Name, ds[i].Max)
				}
			}
			csv.AddRow(fx.name, f.Name,
				fmtBound(per[feasibility.BackendTrajectory][i]),
				fmtBound(per[feasibility.BackendHolistic][i]),
				fmtBound(per[feasibility.BackendNetcalc][i]),
				fmtBound(comb.Bounds[i]),
				string(comb.Provenance[i].Winner),
				fmtBound(comb.Provenance[i].Margin),
				ds[i].Max)
		}
	}
	return csv, nil
}
