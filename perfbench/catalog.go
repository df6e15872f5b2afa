package main

// metricDef names one metric the benchmark prints and its unit. The
// lists below are the benchmark's contract: BENCHMARK.json declares the
// same names and units (the self-test checks that), every run prints all
// of them, and a run that misses one fails.
type metricDef struct {
	name, unit string
}

// endToEnd are printed by untraced runs (--trace 0). Every workload
// prints every one; "op" and "aux" are the workload's primary and
// secondary operation:
//
//	workload        op                                      aux
//	admit-durable   admit/renegotiate/release decision      /v1/whatif probe
//	route-auto      route=auto admit/renegotiate, release   /v1/whatif probe
//	offline-verify  cold combined analysis of the set       streaming simulator run
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are printed by traced runs (--trace 1), one group per module.
// A metric a workload does not exercise reads 0; README.md lists which
// end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	{"serve.decision_us", "us"},
	{"serve.layer_sum_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.self_us", "us"},
	{"serve.residual_frac", "ratio"},
	{"serve.whatif_per_batch", "count"},
	{"serve.retries_429", "per_1k"},
	{"serve.requests_failed", "count"},

	{"trajectory.mutation_us", "us"},
	{"trajectory.bounds_us", "us"},
	{"trajectory.whatif_us_per_cand", "us"},
	{"trajectory.cold_ms", "ms"},
	{"trajectory.sweeps_per_decision", "count"},
	{"trajectory.evals_per_sweep", "count"},
	{"trajectory.dirty_flows", "count"},
	{"trajectory.warm_hit_ratio", "ratio"},
	{"trajectory.allocs_per_mutation", "count"},

	{"obs.tracer_cost_us", "us"},
	{"obs.emit_us_per_decision", "us"},

	{"feasibility.route_candidates_us", "us"},
	{"feasibility.score_routes_us", "us"},
	{"feasibility.route_fanout", "count"},
	{"feasibility.route_feasible_ratio", "ratio"},
	{"feasibility.route_first_infeasible_frac", "ratio"},
	{"feasibility.route_rerouted_frac", "ratio"},
	{"feasibility.combine_ms", "ms"},

	{"model.ksp_us", "us"},
	{"model.flow_build_us", "us"},
	{"model.flowset_ms", "ms"},

	{"holistic.analyze_ms", "ms"},
	{"netcalc.analyze_fifo_ms", "ms"},

	{"journal.append_us", "us"},
	{"journal.checkpoint_ms", "ms"},
	{"journal.bytes_per_decision", "B"},

	{"sim.engine_build_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.allocs_per_khop", "count"},
}

// residualBound is the largest share of a replayed decision that the
// layer spans may leave uncovered before the traced run fails: the
// check behind "the layers add up to the whole".
const residualBound = 0.15
