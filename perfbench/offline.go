package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/netcalc"
	"trajan/internal/sim"
	"trajan/internal/trajectory"
)

// offlineSpec sizes the offline-verify workload: pods disjoint Clos
// fabrics, each carrying flowsPerPod east-west flows routed as the
// served workloads route them (one pinned spine per leaf pair). Disjoint
// pods split the interference graph into independent components.
var offlineSpec = struct {
	pods, spines, leaves, hosts, flowsPerPod int
	gen                                      genParams
	jitterHi                                 model.Time
	// Simulator: packets per flow per run, sporadic gap slack and
	// processing-time slack.
	packets          int
	slack, procSlack model.Time
}{
	pods: 6, spines: 4, leaves: 6, hosts: 4, flowsPerPod: 30,
	gen:      genParams{costLo: 1, costHi: 3, periodLo: 150, periodHi: 300},
	jitterHi: 2,
	packets:  100, slack: 10, procSlack: 1,
}

// setupReps is how many offline set-ups one setup_s sample averages.
const setupReps = 16

// offlineSet generates the pods and relabels each pod's nodes into its
// own range, then applies Assumption 1 to the union and builds the set.
func offlineSet(seed int64) (*model.FlowSet, error) {
	s := offlineSpec
	rng := rand.New(rand.NewSource(seed))
	var flows []*model.Flow
	for pod := 0; pod < s.pods; pod++ {
		fab, err := newFabric(s.spines, s.leaves, s.hosts, rng)
		if err != nil {
			return nil, err
		}
		gen := newFlowGen(s.gen, fab, seed, pod)
		offset := model.NodeID(10000 * (pod + 1))
		for k := 0; k < s.flowsPerPod; k++ {
			fc := gen.flow()
			fc.Name = "p" + fc.Name
			fc.Jitter = gen.between(0, s.jitterHi)
			for i := range fc.Path {
				fc.Path[i] += offset
			}
			f, err := fc.Build()
			if err != nil {
				return nil, err
			}
			flows = append(flows, f)
		}
	}
	return model.NewFlowSet(model.UnitDelayNetwork(), model.EnforceAssumption1(flows))
}

func hopsPerRun(fs *model.FlowSet) int {
	hops := 0
	for _, f := range fs.Flows {
		hops += len(f.Path)
	}
	return hops * offlineSpec.packets
}

// checkSim records every flow whose simulated worst response exceeds
// its bound, and any drop (buffers are unlimited, so a drop is a bug).
func checkSim(res *result, fs *model.FlowSet, out *sim.Result, bounds []model.Time) {
	if d := out.TotalDrops(); d != 0 {
		res.problem("simulator dropped %d packets with unlimited buffers", d)
	}
	for i, st := range out.PerFlow {
		if st.MaxResponse > bounds[i] {
			res.problem("flow %s: simulated response %d exceeds its combined bound %d", fs.Flows[i].Name, st.MaxResponse, bounds[i])
		}
	}
}

func runOfflineVerify(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.log
	var fs *model.FlowSet
	var eng *sim.Engine
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		// One set-up takes a few milliseconds, too little to time alone
		// on a shared machine: a sample is the mean of setupReps set-ups,
		// each sample starting from a collected heap.
		runtime.GC()
		start := time.Now()
		for r := 0; r < setupReps; r++ {
			var err error
			if fs, err = offlineSet(cfg.seed); err != nil {
				return nil, err
			}
			eng = sim.NewEngine(fs, sim.Config{})
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds()/setupReps)
	}
	// The analysis options of `trajan -method all` at its default
	// -workers 0.
	opt := trajectory.Options{}
	source := func(k int) sim.ScenarioSource {
		return sim.NewSporadicSource(fs, cfg.seed*1000+int64(k), offlineSpec.packets, offlineSpec.slack, offlineSpec.procSlack)
	}
	hops := hopsPerRun(fs)
	fmt.Fprintf(w, "  offline set: %d pods, %d flows, %d packet-hops per simulator run\n", offlineSpec.pods, fs.N(), hops)

	res := newResult()
	// Warm up untimed: one analysis and one simulator run.
	comb, err := feasibility.AnalyzeBackend(ctx, fs, feasibility.BackendCombined, opt)
	if err != nil {
		return nil, err
	}
	if _, err := eng.RunSource(ctx, source(-1)); err != nil {
		return nil, err
	}

	if cfg.trace {
		zeroPerLayer(res)
		if err := traceOffline(ctx, cfg, fs, opt, source, res); err != nil {
			return nil, err
		}
	} else {
		var analyses, sims []float64
		runtime.GC()
		heap := startHeapSampler()
		until := time.Now().Add(cfg.seconds)
		for k := 0; ctx.Err() == nil && time.Now().Before(until); k++ {
			start := time.Now()
			comb, err = feasibility.AnalyzeBackend(ctx, fs, feasibility.BackendCombined, opt)
			analyses = append(analyses, float64(time.Since(start).Nanoseconds())/1e6)
			res.attempted++
			if err != nil {
				res.failed++
				return nil, fmt.Errorf("combined analysis: %w", err)
			}
			start = time.Now()
			out, err := eng.RunSource(ctx, source(k))
			sims = append(sims, float64(time.Since(start).Nanoseconds())/1e6)
			res.attempted++
			if err != nil {
				res.failed++
				return nil, fmt.Errorf("simulation: %w", err)
			}
			checkSim(res, fs, out, comb.Bounds)
		}
		heapPeak := heap.stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		timing(w, "setup_s", setupTimes, "s", 99)
		timing(w, "analyze_ms", analyses, "ms", 90)
		timing(w, "sim_run_ms", sims, "ms", 90)
		line(w, "sim_mhops_per_s", float64(hops)*float64(len(sims))/(1e3*sum(sims)), "Mhop/s", len(sims))
		line(w, "heap_peak_mb", heapPeak, "MB", 1)
		res.set("setup_s", median(setupTimes))
		res.set("op_p50_ms", median(analyses))
		res.set("aux_p50_ms", median(sims))
		res.set("heap_peak_mb", heapPeak)
	}

	// The combined bound must never exceed a single backend's.
	for _, b := range []feasibility.Backend{feasibility.BackendTrajectory, feasibility.BackendHolistic, feasibility.BackendNetcalc} {
		single, err := feasibility.AnalyzeBackend(ctx, fs, b, opt)
		if err != nil {
			if isRefusal(err) {
				continue // the backend certifies nothing; combined is trivially below it
			}
			return nil, fmt.Errorf("%s backend: %w", b, err)
		}
		for i := range single.Bounds {
			if comb.Bounds[i] > single.Bounds[i] {
				res.problem("flow %s: combined bound %d above the %s bound %d", fs.Flows[i].Name, comb.Bounds[i], b, single.Bounds[i])
			}
		}
	}
	return res, nil
}

// traceOffline times each backend, the combination step and the
// simulator separately, in rounds until cfg.seconds have passed, and
// reports per-round medians.
func traceOffline(ctx context.Context, cfg runConfig, fs *model.FlowSet, opt trajectory.Options,
	source func(int) sim.ScenarioSource, res *result) error {
	var flowset, build, traj, hol, nc, combine, runs, allocs []float64
	ms := func(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }
	until := time.Now().Add(cfg.seconds)
	for k := 0; ctx.Err() == nil && (k < 3 || time.Now().Before(until)); k++ {
		flows := cloneFlows(fs.Flows)
		start := time.Now()
		set, err := model.NewFlowSet(fs.Net, flows)
		flowset = append(flowset, ms(start))
		if err != nil {
			return err
		}
		start = time.Now()
		eng := sim.NewEngine(set, sim.Config{})
		build = append(build, ms(start))

		start = time.Now()
		if _, err := trajectory.AnalyzeContext(ctx, set, opt); err != nil {
			return err
		}
		t := ms(start)
		start = time.Now()
		if _, err := holistic.Analyze(set, holistic.Options{MaxIterations: opt.MaxIterations}); err != nil && !isRefusal(err) {
			return err
		}
		h := ms(start)
		start = time.Now()
		if _, err := netcalc.AnalyzeFIFO(set, netcalc.FIFOOptions{MaxIterations: opt.MaxIterations}); err != nil && !isRefusal(err) {
			return err
		}
		n := ms(start)
		start = time.Now()
		comb, err := feasibility.AnalyzeBackend(ctx, set, feasibility.BackendCombined, opt)
		if err != nil {
			return err
		}
		combine = append(combine, ms(start)-t-h-n)
		traj, hol, nc = append(traj, t), append(hol, h), append(nc, n)
		res.attempted += 4 // three single backends and the combined one

		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.Mallocs
		start = time.Now()
		out, err := eng.RunSource(ctx, source(k))
		runs = append(runs, time.Since(start).Seconds())
		res.attempted++
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m)
		allocs = append(allocs, float64(m.Mallocs-before)/(float64(hopsPerRun(set))/1e3))
		checkSim(res, set, out, comb.Bounds)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := cfg.log
	for _, s := range []struct {
		name string
		xs   []float64
		unit string
	}{
		{"model.flowset_ms", flowset, "ms"}, {"sim.engine_build_ms", build, "ms"},
		{"trajectory.cold_ms", traj, "ms"}, {"holistic.analyze_ms", hol, "ms"},
		{"netcalc.analyze_fifo_ms", nc, "ms"}, {"feasibility.combine_ms", combine, "ms"},
		{"sim.run_s", runs, "s"}, {"sim.allocs_per_khop", allocs, "count"},
	} {
		timing(w, s.name, s.xs, s.unit, 90)
		res.set(s.name, median(s.xs))
	}
	return nil
}
