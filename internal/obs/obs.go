// Package obs is the observability layer of the analysis engine: a
// zero-overhead-when-disabled tracing interface, a structured event
// schema shared by the JSON trace log and the metrics registry, and a
// Prometheus/expvar-compatible metrics exposition.
//
// The engine (internal/trajectory, internal/feasibility) emits events
// through an optional Tracer carried in trajectory.Options. Every
// emission site is guarded by a nil check, so a nil tracer costs one
// predictable branch and zero allocations on the hot paths — the
// benchmark guard tests (bench_guard_test.go, trajectory/obs_test.go)
// enforce this.
//
// Three Tracer implementations ship here:
//
//   - JSONTracer streams events as JSON Lines — a replayable log that
//     internal/report renders into a "why is Ri what it is" breakdown.
//   - Metrics aggregates events into counters/gauges/histograms and
//     exposes them in Prometheus text format and as expvar-style JSON.
//   - Collector buffers events in memory (tests, custom renderers).
//
// Tee fans one emission out to several tracers.
package obs

import "trajan/internal/model"

// Event types. Each value names the emitting subsystem and the moment
// in the analysis it marks; docs/OBSERVABILITY.md documents the fields
// each type populates.
const (
	// EvAnalysisStart opens a full analysis: Flows, Mode.
	EvAnalysisStart = "analysis.start"
	// EvSmaxSeed opens an Smax fixed-point run: Op ("warm"|"cold"),
	// Dirty (count of flows whose rows start dirty; warm runs only).
	EvSmaxSeed = "smax.seed"
	// EvSmaxSweep is one fixed-point sweep: Sweep, Evaluated (views
	// re-evaluated this sweep), Changed (table entries that grew).
	EvSmaxSweep = "smax.sweep"
	// EvSmaxDone closes an Smax run: Mode, Op ("warm"|"cold"), Sweep
	// (total sweeps), Outcome ("converged"|"fallback"|"capped"|"error"|
	// "canceled").
	EvSmaxDone = "smax.done"
	// EvBslow is one converged busy-period fixed point (Lemma 3):
	// Flow, Iters, Value (Bslow).
	EvBslow = "bslow.fixpoint"
	// EvDelta is one committed analyzer mutation: Op ("add"|"remove"|
	// "update"), Flow, Outcome ("warm"|"cold"|"undo"), Dirty (flows
	// whose Smax rows restart from the no-queue floor).
	EvDelta = "delta.mutation"
	// EvWhatIfBatch opens a WhatIf batch: Candidates, Workers.
	EvWhatIfBatch = "whatif.batch"
	// EvWhatIfCand closes one WhatIf candidate: Index (1-based), Op,
	// Outcome ("ok"|"err"). Emitted from worker goroutines; order
	// across candidates is scheduling-dependent.
	EvWhatIfCand = "whatif.candidate"
	// EvFlowBound is one flow's finished bound with its full
	// Lemma-2/Property-3 decomposition: Flow, Value (Ri), Decomp.
	EvFlowBound = "flow.bound"
	// EvSaturation marks a saturated (Unbounded) verdict: Flow, Op
	// (the site, e.g. "bound").
	EvSaturation = "saturation"
	// EvAdmission is one decision of the admission core
	// (feasibility.Controller): Flow, Op ("admit"|"release"|
	// "renegotiate"), Outcome ("admitted"|"released"|"renegotiated", or
	// "rejected (<reason>)"; metrics key on the first word).
	EvAdmission = "admission.decision"
	// EvServeRequest is one HTTP request handled by the admission
	// service (internal/serve): Op (the route, e.g. "admit", "whatif",
	// "bounds"), Outcome ("ok"|"client_error"|"server_error"|
	// "backpressure"|"shutdown"|"timeout").
	EvServeRequest = "serve.request"
	// EvJournal is one durability operation on a decision journal
	// (internal/journal): Op ("append"|"checkpoint"|"rotate"|"recover"),
	// Outcome ("ok"|"error", or "clean"|"torn_tail" for recover), Value
	// (bytes appended, checkpoint seq, or records replayed).
	EvJournal = "journal.io"
	// EvTenant is one tenant lifecycle transition in the multi-tenant
	// registry (internal/serve): Op ("open"|"rehydrate"|"evict"|
	// "quarantine"|"restart"), Outcome ("ok"|"error"), Flows (flow count
	// after the transition where meaningful).
	EvTenant = "tenant.lifecycle"
	// EvRouteCandidate is one scored candidate path of an auto-route
	// admission: Flow, Index (1-based candidate position in k-shortest
	// order), Op (the candidate path, rendered), Outcome ("feasible"|
	// "infeasible"|"unstable"|"invalid"|"error"), Value (post-admission
	// MinSlack for feasible/infeasible candidates).
	EvRouteCandidate = "route.candidate"
	// EvRouteDecision closes one auto-route admission: Flow, Op
	// ("admit"|"renegotiate"), Outcome ("admitted"|"renegotiated"|
	// "rejected"), Candidates (paths scored), Index (1-based winning
	// candidate; 0 when refused), Value (the winner's MinSlack).
	EvRouteDecision = "route.decision"
)

// WorkloadTerm is one interfering flow's contribution to a bound — the
// Lemma-2 workload term (1+⌊(t*+A_{i,j})/Tj⌋)⁺ · C^{slow_{j,i}}_j
// evaluated at the critical instant.
type WorkloadTerm struct {
	Flow          string     `json:"flow"`
	A             model.Time `json:"a"`       // window offset A_{i,j}
	Packets       model.Time `json:"packets"` // (1+⌊(t*+A)/Tj⌋)⁺
	Charge        model.Time `json:"charge"`  // C^{slow_{j,i}}_j
	Work          model.Time `json:"work"`    // Packets · Charge
	SameDirection bool       `json:"same_direction"`
}

// BoundDecomp is the exact decomposition of one flow's Property-2/3
// bound into the paper's terms. For a finite bound the identity
//
//	R = Σ Terms[x].Work + Self + CountedTwice + Links + Delta − CriticalT
//
// holds exactly (Sum reproduces it); the trace tests and the report
// renderer verify it. An Unbounded verdict carries no term breakdown —
// the saturated A offsets have no meaningful finite values.
type BoundDecomp struct {
	R         model.Time `json:"r"`
	Unbounded bool       `json:"unbounded,omitempty"`
	// CriticalT is the release time t* attaining the maximum; the scan
	// window is [-Ji, -Ji+Bslow).
	CriticalT model.Time `json:"critical_t"`
	Bslow     model.Time `json:"bslow"`
	SlowNode  int        `json:"slow_node"`
	// Self is the flow's own workload (1+⌊(t*+Ji)/Ti⌋) · C^{slow_i}_i,
	// decomposed into SelfPackets · SelfCharge.
	Self        model.Time `json:"self"`
	SelfPackets model.Time `json:"self_packets"`
	SelfCharge  model.Time `json:"self_charge"`
	// CountedTwice is the residue Σ_{h≠slow_i} max_{j same-dir} C^h_j
	// (Lemma 1's packets counted twice, charged once).
	CountedTwice model.Time `json:"counted_twice"`
	// Links is the store-and-forward term (|Pi|−1)·Lmax.
	Links model.Time `json:"links"`
	// Delta is the non-preemption penalty δi (Property 3; 0 for pure
	// FIFO).
	Delta model.Time `json:"delta"`
	// Terms are the per-interferer workload contributions.
	Terms []WorkloadTerm `json:"terms,omitempty"`
	// Backend names the analysis backend that produced R when the
	// bound came through the multi-backend layer (internal/feasibility:
	// "trajectory", "holistic", "netcalc"); empty on decompositions
	// emitted by the trajectory engine itself.
	Backend string `json:"backend,omitempty"`
	// Margin is how far the winning backend beat the best losing
	// candidate (0 on ties, single-backend runs, and unbounded wins).
	Margin model.Time `json:"margin,omitempty"`
	// Candidates are the per-backend bounds the best-of-bounds
	// combinator compared; R is their minimum. A decomposition carrying
	// Candidates is a provenance record, not a Lemma-2 term breakdown —
	// consumers must check R against the candidate minimum, not Sum.
	Candidates []BackendBound `json:"candidates,omitempty"`
}

// BackendBound is one backend's verdict for one flow inside a
// best-of-bounds provenance record.
type BackendBound struct {
	Backend   string     `json:"backend"`
	R         model.Time `json:"r"`
	Unbounded bool       `json:"unbounded,omitempty"`
}

// Sum recomputes the bound from the decomposition terms. For a finite
// bound it equals R exactly; callers use it as an integrity check on
// replayed traces.
func (d *BoundDecomp) Sum() model.Time {
	s := d.Self + d.CountedTwice + d.Links + d.Delta - d.CriticalT
	for _, t := range d.Terms {
		s += t.Work
	}
	return s
}

// Event is one trace record. The schema is deliberately flat: every
// event type populates a subset of the fields (zero-valued fields are
// omitted from the JSON), so one struct round-trips the whole log and
// consumers switch on Type. Seq is assigned by the tracer at emission
// and orders the log — events carry no wall-clock timestamps, which
// keeps traces byte-deterministic and replayable.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	// Tenant labels the event with the serving tenant in multi-tenant
	// deployments; empty in single-tenant and library use (the metrics
	// registry only adds a tenant label when this is non-empty, keeping
	// single-tenant series names unchanged).
	Tenant string `json:"tenant,omitempty"`
	Flow   string `json:"flow,omitempty"`
	// Op qualifies the event within its type: the mutation kind on
	// EvDelta/EvWhatIfCand, the seed kind ("warm"|"cold") on
	// EvSmaxSeed/EvSmaxDone, the admission path on EvAdmission, the
	// saturation site on EvSaturation.
	Op      string `json:"op,omitempty"`
	Mode    string `json:"mode,omitempty"` // Smax estimator name
	Outcome string `json:"outcome,omitempty"`
	Sweep   int    `json:"sweep,omitempty"`
	// Evaluated/Changed instrument one fixed-point sweep: views
	// re-evaluated and table entries that grew.
	Evaluated int `json:"evaluated,omitempty"`
	Changed   int `json:"changed,omitempty"`
	// Dirty counts flows whose Smax rows restart dirty (warm seeds and
	// delta mutations).
	Dirty      int `json:"dirty,omitempty"`
	Iters      int `json:"iters,omitempty"`
	Flows      int `json:"flows,omitempty"`
	Candidates int `json:"candidates,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Index is 1-based (so it survives omitempty); on EvWhatIfCand it
	// identifies the candidate as cands[Index-1].
	Index  int          `json:"index,omitempty"`
	Value  model.Time   `json:"value,omitempty"`
	Decomp *BoundDecomp `json:"decomp,omitempty"`
}

// Tracer receives engine events. Implementations must be safe for
// concurrent Emit calls: WhatIf batches emit from worker goroutines.
// Emitters own the Event value they pass; tracers that retain events
// (Collector) store the value, not a pointer into the emitter.
type Tracer interface {
	Emit(Event)
}

// tee fans an emission out to several tracers in order.
type tee []Tracer

func (t tee) Emit(e Event) {
	for _, tr := range t {
		tr.Emit(e)
	}
}

// Tee combines tracers into one; nil entries are dropped. It returns
// nil when nothing remains, so callers can pass the result straight to
// Options.Tracer and keep the disabled fast path, and the single
// survivor unwrapped when only one remains.
func Tee(tracers ...Tracer) Tracer {
	var out tee
	for _, tr := range tracers {
		if tr != nil {
			out = append(out, tr)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
