// Package trajectory implements the paper's primary contribution: the
// trajectory-approach worst-case end-to-end response-time analysis of
// sporadic flows scheduled FIFO (Martin & Minet, IPDPS 2006, Lemmas 2–3
// and Properties 1–3).
//
// Unlike the holistic approach, which compounds per-node worst cases
// that may be jointly impossible, the trajectory approach follows the
// packet's actual worst-case trajectory: it moves backwards through the
// visited nodes, identifying on each node the busy period affecting the
// packet and the first packet f(h) of that busy period, and bounds the
// cumulative delay, counting the packets "counted twice" between
// consecutive nodes exactly once (Lemma 1).
//
// The headline result is Property 2:
//
//	Ri = max_{-Ji ≤ t < -Ji+Bslow_i} { W^lasti_{i,t} + C^lasti_i - t }
//
//	W^lasti_{i,t} = Σ_{j≠i} (1+⌊(t+A_{i,j})/Tj⌋)⁺ · C^{slow_{j,i}}_j
//	             + (1+⌊(t+Ji)/Ti⌋) · C^{slow_i}_i
//	             + Σ_{h∈Pi, h≠slow_i} max_{j same-dir} C^h_j
//	             - C^{lasti}_i + (|Pi|-1)·Lmax  [+ δi for the EF class]
//
// The A_{i,j} terms depend on Smax^h (worst-case source→node times),
// which the paper uses but never shows how to compute; this package
// provides the prefix fixed point and an unsound no-queue floor (see
// SmaxMode) and documents their soundness arguments. See EXPERIMENTS.md
// for the calibration against the paper's Table 2.
package trajectory

import (
	"runtime"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// SmaxMode selects how the analysis computes Smax^h_i, the maximum time
// for a packet of flow i to reach node h from its source — a quantity
// Property 2 consumes but the paper leaves unspecified.
type SmaxMode int

const (
	// SmaxPrefixFixpoint bounds Smax^h_i by the trajectory bound of the
	// flow restricted to its prefix path ending just before h, plus
	// Lmax, iterated over all flows and nodes to a fixed point. This is
	// the only sound estimator and the package default. The fixed
	// point is reached from below (seeded with SmaxNoQueue); its bounds
	// are cross-validated against exhaustive simulation in this
	// repository's test suite.
	SmaxPrefixFixpoint SmaxMode = iota

	// SmaxNoQueue uses the queueing-free traversal time with Lmax links.
	// It is NOT sound in general (a packet can be queued upstream); it
	// exists for sensitivity studies of how much the bound depends on
	// the Smax term.
	SmaxNoQueue
)

// String names the mode.
func (m SmaxMode) String() string {
	switch m {
	case SmaxPrefixFixpoint:
		return "prefix-fixpoint"
	case SmaxNoQueue:
		return "no-queue"
	default:
		return "unknown"
	}
}

// ParseSmaxMode maps a -smax flag value (prefix|noqueue) onto a
// mode; anything else is ErrInvalidConfig.
func ParseSmaxMode(s string) (SmaxMode, error) {
	switch s {
	case "prefix":
		return SmaxPrefixFixpoint, nil
	case "noqueue":
		return SmaxNoQueue, nil
	}
	return 0, model.Errorf(model.ErrInvalidConfig, "unknown -smax %q", s)
}

// Options configures an analysis run. The zero value is the package
// default: prefix-fixpoint Smax, full scan of the critical instants t,
// closed workload windows, and generous iteration limits.
type Options struct {
	// Smax selects the Smax^h estimator.
	Smax SmaxMode

	// MaxIterations caps fixed-point iterations (both the Smax tables
	// and the Bslow busy-period equation). Zero selects the default 256.
	MaxIterations int

	// Horizon aborts the analysis when a busy period or bound exceeds
	// it, which signals an unstable configuration: a busy period whose
	// Bslow load is ≥ 1, which can happen while every node's
	// utilization is below 1. Zero selects the default 1<<40 ticks.
	Horizon model.Time

	// DisableTScan restricts the maximization of Property 2 to
	// t = -Ji only, skipping the other critical instants. Property 2
	// requires the full scan; this switch exists to quantify (in the
	// experiment suite) how much the scan contributes.
	DisableTScan bool

	// StrictWindow counts interfering packets over half-open generation
	// windows, i.e. (1+⌊(x-1)/T⌋)⁺ instead of (1+⌊x/T⌋)⁺. The paper's
	// operator is the closed-window one (default false); the strict
	// variant exists for the Table-2 calibration study.
	StrictWindow bool

	// Parallelism bounds the worker count, the calling goroutine
	// included, for the fixed-point sweeps (each sweep's per-view
	// bounds are independent given the previous table, so they fan out
	// safely), for the view builds ahead of a fixed point's first sweep
	// (one flow per job), for WhatIf's candidates, and, in
	// feasibility's combined backend, for how many of the three
	// backends run at once. A sweep or a view prebuild uses one worker
	// per 16384 interferer entries of work, up to this bound, so a
	// served-size warm delta runs on the caller at any setting. 0
	// selects GOMAXPROCS; 1 forces serial execution. Results, errors
	// and trace events are identical at any setting — the sweeps are
	// pure functions of the previous iterate, and views and backends
	// are merged in serial order.
	Parallelism int

	// Tracer receives structured observability events: Smax fixed-point
	// sweeps, warm-start seeding and outcomes, busy-period convergence,
	// delta mutations, WhatIf batches, and per-flow bound
	// decompositions (see internal/obs for the event schema). Nil
	// disables tracing; every emission site is behind a nil check, so
	// the disabled path stays allocation-free and within noise of the
	// untraced engine (enforced by the benchmark guard tests). Tracing
	// is observation only — results, errors and iteration counts are
	// bit-identical with and without a tracer.
	Tracer obs.Tracer
}

// Workers returns the worker count Parallelism selects: Parallelism
// itself, or GOMAXPROCS when it is 0.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return 256
	}
	return o.MaxIterations
}

func (o Options) horizon() model.Time {
	if o.Horizon <= 0 {
		return 1 << 40
	}
	// Clamp to the saturation rail: a horizon at TimeInfinity means "never
	// abort on divergence", letting saturated quantities degrade to
	// explicit Unbounded verdicts (or ErrOverflow) instead of ErrUnstable.
	if o.Horizon > model.TimeInfinity {
		return model.TimeInfinity
	}
	return o.Horizon
}

// count returns the number of packets of a sporadic flow with period
// period whose generation times can fall in a window of length win —
// the paper's (1 + ⌊win/period⌋)⁺ operator, or its half-open variant
// when StrictWindow is set.
func (o Options) count(win, period model.Time) model.Time {
	if o.StrictWindow {
		win--
	}
	return model.OnePlusFloorPos(win, period)
}

// countSat is the saturating variant of count, used by the scan guard
// (and only there — a guard-cleared scan runs the exact operator).
func (o Options) countSat(win, period model.Time, sat *bool) model.Time {
	if o.StrictWindow {
		win = model.SubSat(win, 1, sat)
	}
	return model.OnePlusFloorPosSat(win, period, sat)
}
