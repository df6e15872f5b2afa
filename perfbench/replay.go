package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
)

// maxReplayed caps the decisions the traced run replays: the prefix of
// the served log is enough for stable per-call means, and the replay is
// then bounded whatever the timed phase's length.
const maxReplayed = 2000

type replayParams struct {
	spec   servedSpec
	fab    *fabric
	log    []logEntry
	counts map[string]float64
	dir    string
	out    io.Writer
	seed   int64
}

// span is one timed call into a module, inside one replayed request.
type span struct {
	Req   int    `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps a replay's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	req   int
	spans []span
}

// layerTotals accumulates one pass's time and call count per span name.
type layerTotals struct {
	ns    map[string]int64
	calls map[string]int
}

func newLayerTotals() *layerTotals {
	return &layerTotals{ns: make(map[string]int64), calls: make(map[string]int)}
}

func (t *layerTotals) perCallUs(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.ns[name]) / float64(t.calls[name]) / 1e3
}

// replayer re-executes served requests in-process against the public
// functions of the modules below serve, in the order the mutation loop
// calls them. Its decision logic mirrors serve's loop: admit tests the
// candidate with one warm AddFlow and undoes it on refusal, release
// always commits, renegotiate updates in place and restores the old
// contract on refusal, and every commit is journaled before the next
// decision.
type replayer struct {
	opt    trajectory.Options
	topo   *model.Topology
	tenant string
	a      *trajectory.Analyzer
	// jl, when set, journals every commit and checkpoints every
	// checkpointEvery commits, as a journaled tenant does.
	jl        *journal.Journal
	seq       int64
	sinceCkpt int
	// serveEmit emits the serve layer's own admission and route events.
	serveEmit bool
	// spans and totals are nil for passes that only time the whole.
	spans  *spanLog
	totals *layerTotals
	// mutations counts AddFlow/RemoveFlow/UpdateFlow calls.
	mutations int
}

// checkpointEvery is serve's default checkpoint interval (Config
// CheckpointEvery 0).
const checkpointEvery = 64

func (r *replayer) timed(name string, fn func()) {
	if r.totals == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	r.totals.ns[name] += end.Sub(start).Nanoseconds()
	r.totals.calls[name]++
	if s := r.spans; s != nil {
		s.spans = append(s.spans, span{Req: s.req, Name: name, Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds()})
	}
}

func (r *replayer) emit(e obs.Event) {
	if !r.serveEmit || r.opt.Tracer == nil {
		return
	}
	e.Tenant = r.tenant
	r.timed("obs.emit", func() { r.opt.Tracer.Emit(e) })
}

func (r *replayer) findFlow(name string) int {
	if r.a == nil {
		return -1
	}
	for i, f := range r.a.FlowSet().Flows {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func (r *replayer) mutate(fn func() error) (err error) {
	r.mutations++
	r.timed("trajectory.mutation", func() { err = fn() })
	return err
}

// verdict is serve's: the warm bounds and whether every deadline holds.
func (r *replayer) verdict(ctx context.Context) (ok bool, err error) {
	var bounds []model.Time
	r.timed("trajectory.bounds", func() { bounds, err = r.a.BoundsContext(ctx) })
	if err != nil {
		return false, err
	}
	allOK, _ := feasibility.SetVerdict(r.a.FlowSet().Flows, bounds)
	return allOK, nil
}

func isRefusal(err error) bool {
	return errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow)
}

// commit journals one committed decision and checkpoints on schedule.
func (r *replayer) commit(op, name string, f *model.Flow) error {
	if r.jl != nil {
		rec := journal.Record{Seq: r.seq + 1, Op: op, Name: name}
		if f != nil {
			cfg := model.ConfigOfFlow(f)
			rec.Flow = &cfg
		}
		var err error
		r.timed("journal.append", func() { err = r.jl.Append(rec) })
		if err != nil {
			return err
		}
		r.sinceCkpt++
	}
	r.seq++
	if r.jl != nil && r.sinceCkpt >= checkpointEvery {
		r.sinceCkpt = 0
		cp := journal.Checkpoint{Seq: r.seq, Network: model.NetworkConfig{Lmin: network.Lmin, Lmax: network.Lmax}}
		for _, f := range r.a.FlowSet().Flows {
			cp.Flows = append(cp.Flows, model.ConfigOfFlow(f))
		}
		var err error
		r.timed("journal.checkpoint", func() { err = r.jl.WriteCheckpoint(cp) })
		return err
	}
	return nil
}

func (r *replayer) admit(ctx context.Context, f *model.Flow) (string, error) {
	idx := 0
	err := r.mutate(func() error {
		if r.a == nil {
			fs, err := model.NewFlowSet(network, []*model.Flow{f})
			if err != nil {
				return err
			}
			r.a, err = trajectory.NewAnalyzer(fs, r.opt)
			return err
		}
		var err error
		idx, err = r.a.AddFlow(f)
		return err
	})
	if err != nil {
		return "", err
	}
	revert := func() error {
		return r.mutate(func() error {
			if r.a.FlowSet().N() == 1 {
				r.a = nil
				return nil
			}
			return r.a.RemoveFlow(idx)
		})
	}
	ok, err := r.verdict(ctx)
	if err != nil && !isRefusal(err) {
		return "", errors.Join(err, revert())
	}
	if err != nil || !ok {
		r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: f.Name, Outcome: "rejected"})
		return "rejected", revert()
	}
	if err := r.commit("admit", "", f); err != nil {
		return "", err
	}
	r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: f.Name, Outcome: "admitted"})
	return "admitted", nil
}

func (r *replayer) release(ctx context.Context, name string) (string, error) {
	i := r.findFlow(name)
	if i < 0 {
		return "", fmt.Errorf("release of unknown flow %s", name)
	}
	if err := r.mutate(func() error {
		if r.a.FlowSet().N() == 1 {
			r.a = nil
			return nil
		}
		return r.a.RemoveFlow(i)
	}); err != nil {
		return "", err
	}
	if err := r.commit("release", name, nil); err != nil {
		return "", err
	}
	if r.a != nil {
		if _, err := r.verdict(ctx); err != nil {
			return "", err
		}
	}
	r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: name, Outcome: "released"})
	return "released", nil
}

func (r *replayer) renegotiate(ctx context.Context, f *model.Flow) (string, error) {
	i := r.findFlow(f.Name)
	if i < 0 {
		return "", fmt.Errorf("renegotiation of unknown flow %s", f.Name)
	}
	old := r.a.FlowSet().Flows[i].Clone()
	if err := r.mutate(func() error { return r.a.UpdateFlow(i, f) }); err != nil {
		return "", err
	}
	revert := func() error { return r.mutate(func() error { return r.a.UpdateFlow(i, old) }) }
	ok, err := r.verdict(ctx)
	if err != nil && !isRefusal(err) {
		return "", errors.Join(err, revert())
	}
	if err != nil || !ok {
		r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: f.Name, Outcome: "rejected"})
		return "rejected", revert()
	}
	if err := r.commit("renegotiate", "", f); err != nil {
		return "", err
	}
	r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: f.Name, Outcome: "renegotiated"})
	return "renegotiated", nil
}

// route resolves a route=auto request the way serve does: enumerate the
// candidate paths, score them as one what-if batch (cold against an
// empty set), and pick the widest-slack feasible one. It returns nil
// when no candidate is feasible.
func (r *replayer) route(ctx context.Context, f *model.Flow, update bool) (*model.Flow, error) {
	var cfs []*model.Flow
	var err error
	r.timed("feasibility.route_candidates", func() {
		cfs, err = feasibility.RouteCandidates(r.topo, f, feasibility.DefaultRouteK)
	})
	if err != nil {
		return nil, err
	}
	updateIdx := -1
	if update {
		if updateIdx = r.findFlow(f.Name); updateIdx < 0 {
			return nil, fmt.Errorf("re-route of unknown flow %s", f.Name)
		}
	}
	var cands []feasibility.RouteCandidate
	r.timed("feasibility.score_routes", func() {
		if r.a == nil {
			cands = feasibility.ScoreRoutesCold(ctx, network, r.opt, nil, cfs)
		} else {
			cands = feasibility.ScoreRoutesWhatIf(ctx, r.a, cfs, updateIdx)
		}
	})
	win := feasibility.ChooseRoute(cands)
	for i := range cands {
		r.emit(obs.Event{Type: obs.EvRouteCandidate, Flow: f.Name, Index: i + 1, Op: fmt.Sprint(cands[i].Path),
			Outcome: cands[i].Outcome, Value: cands[i].MinSlack})
	}
	op := "admit"
	if update {
		op = "renegotiate"
	}
	if win < 0 {
		r.emit(obs.Event{Type: obs.EvRouteDecision, Flow: f.Name, Op: op, Outcome: "rejected", Candidates: len(cands)})
		r.emit(obs.Event{Type: obs.EvAdmission, Op: "serve", Flow: f.Name, Outcome: "rejected"})
		return nil, nil
	}
	r.emit(obs.Event{Type: obs.EvRouteDecision, Flow: f.Name, Op: op, Outcome: "chosen", Candidates: len(cands),
		Index: win + 1, Value: cands[win].MinSlack})
	return cands[win].Flow, nil
}

// resolvedOp is a decision reduced to its warm-engine work: what the
// mutation-only passes replay.
type resolvedOp struct {
	kind string
	flow *model.Flow
	name string
}

// decide replays one served decision end to end: decode and build,
// route resolution, the warm mutation and bounds, journal and events.
func (r *replayer) decide(ctx context.Context, e logEntry) (outcome string, op resolvedOp, err error) {
	var f *model.Flow
	var name string
	r.timed("model.flow_build", func() {
		if e.kind == "release" {
			var req serve.ReleaseRequest
			err = json.Unmarshal(e.body, &req)
			name = req.Name
			return
		}
		var req serve.AdmitRequest
		if err = json.Unmarshal(e.body, &req); err != nil {
			return
		}
		if f, err = req.Flow.Build(); err == nil && !e.auto {
			err = r.topo.ValidatePath(f.Path)
		}
	})
	if err != nil {
		return "", op, err
	}
	if e.auto {
		if f, err = r.route(ctx, f, e.kind == "renegotiate"); err != nil || f == nil {
			return "rejected", resolvedOp{kind: "none"}, err
		}
	}
	op = resolvedOp{kind: e.kind, flow: f, name: name}
	outcome, err = r.apply(ctx, op)
	return outcome, op, err
}

func (r *replayer) apply(ctx context.Context, op resolvedOp) (string, error) {
	switch op.kind {
	case "admit":
		return r.admit(ctx, op.flow)
	case "release":
		return r.release(ctx, op.name)
	case "renegotiate":
		return r.renegotiate(ctx, op.flow)
	case "none":
		return "rejected", nil
	}
	return "", fmt.Errorf("unknown decision %q", op.kind)
}

// probe replays one /v1/whatif request and returns its candidate count.
func (r *replayer) probe(ctx context.Context, e logEntry) (int, error) {
	var req serve.WhatIfRequest
	var cands []trajectory.Candidate
	var err error
	r.timed("model.flow_build", func() {
		if err = json.Unmarshal(e.body, &req); err != nil {
			return
		}
		for _, c := range req.Candidates {
			var f *model.Flow
			if f, err = c.Flow.Build(); err != nil {
				return
			}
			cands = append(cands, trajectory.Candidate{Add: f})
		}
	})
	if err != nil {
		return 0, err
	}
	// A candidate's analysis error (divergence, an Assumption-1 clash
	// with the admitted set) is the probe's answer, not a failure.
	r.timed("trajectory.whatif", func() {
		if r.a == nil {
			for _, c := range cands {
				fs, ferr := model.NewFlowSet(network, []*model.Flow{c.Add})
				if ferr != nil {
					continue
				}
				if a, aerr := trajectory.NewAnalyzer(fs, r.opt); aerr == nil {
					_, _ = a.BoundsContext(ctx)
				}
			}
			return
		}
		r.a.WhatIfContext(ctx, cands)
	})
	return len(cands), nil
}

// timingTracer forwards to the daemon's registry and accumulates the
// time spent inside Emit, from every goroutine that emits.
type timingTracer struct {
	next obs.Tracer
	ns   atomic.Int64
}

func (t *timingTracer) Emit(e obs.Event) {
	start := time.Now()
	t.next.Emit(e)
	t.ns.Add(time.Since(start).Nanoseconds())
}

// replayServed is the traced run of a served workload. Pass A replays
// the served log with the daemon's tracer wrapped to time Emit, timing
// every module call (and journaling into a sibling directory when the
// workload is durable); passes B and C replay only the decisions' warm
// mutations and bounds with and without the tracer.
//
// The identity is checked on the decisions of the timed phase that the
// replay covers, so the served and the replayed figure describe the same
// requests: served = layer spans + residual + queue wait + serve self.
func replayServed(ctx context.Context, p replayParams, res *result) error {
	w := p.out
	var entries []logEntry
	decisions := 0
	for _, e := range p.log {
		if decisions == maxReplayed {
			break
		}
		entries = append(entries, e)
		if e.kind != "whatif" {
			decisions++
		}
	}
	tenant := ""
	if p.spec.journaled {
		tenant = "default"
	}

	// Pass A: every layer, spans kept.
	tt := &timingTracer{next: obs.NewMetrics()}
	ra := &replayer{opt: daemonOptions(tt), topo: p.fab.topo, tenant: tenant, serveEmit: true,
		spans: &spanLog{t0: time.Now()}, totals: newLayerTotals()}
	if p.spec.journaled {
		dir := filepath.Join(p.dir, "replay-journal")
		jl, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return err
		}
		defer func() { _ = jl.Close() }()
		if err := jl.WriteCheckpoint(journal.Checkpoint{Seq: 1, Network: model.NetworkConfig{Lmin: network.Lmin, Lmax: network.Lmax}}); err != nil {
			return err
		}
		ra.jl = jl
	}
	ra.seq = 1
	var resolved []resolvedOp
	// Per entry: the replayed loop time, and for decisions the layer
	// spans and the Emit time inside it.
	loopNs := make([]int64, len(entries))
	layerNs := make([]int64, len(entries))
	emitNs := make([]int64, len(entries))
	var allDecisionNs int64
	cands := 0
	mismatches := 0
	for i, e := range entries {
		ra.spans.req = i
		if e.kind == "whatif" {
			start := time.Now()
			n, err := ra.probe(ctx, e)
			loopNs[i] = time.Since(start).Nanoseconds()
			if err != nil {
				return fmt.Errorf("replayed probe %d: %w", i, err)
			}
			cands += n
			continue
		}
		before, emitBefore := sumNs(ra.totals), tt.ns.Load()
		start := time.Now()
		outcome, op, err := ra.decide(ctx, e)
		loopNs[i] = time.Since(start).Nanoseconds()
		layerNs[i], emitNs[i] = sumNs(ra.totals)-before, tt.ns.Load()-emitBefore
		allDecisionNs += loopNs[i]
		if err != nil {
			return fmt.Errorf("replayed decision %d (%s): %w", i, e.kind, err)
		}
		if outcome != e.outcome && mismatches < 5 {
			res.problem("replayed %s %d decided %q, the service decided %q", e.kind, i, outcome, e.outcome)
			mismatches++
		}
		resolved = append(resolved, op)
	}
	if err := writeSpans(filepath.Join(filepath.Dir(p.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", p.spec.name, p.seed)), ra.spans.spans); err != nil {
		return err
	}
	t := ra.totals
	n := float64(len(resolved))

	// The identity's decisions: the timed phase's. The replayed prefix
	// always reaches it, since set-up and warm-up decide far fewer than
	// maxReplayed times.
	var measured []int
	for i, e := range entries {
		if e.kind != "whatif" && e.timed {
			measured = append(measured, i)
		}
	}
	if len(measured) == 0 {
		return errors.New("the replay covers no decision of the timed phase")
	}
	// The round trip a decision spends outside the loop (HTTP, JSON),
	// from the set-up's decisions, which no other client overlaps.
	var outside []float64
	for i, e := range entries {
		if e.setup && e.kind != "whatif" {
			outside = append(outside, float64(e.answered.Sub(e.sent).Nanoseconds()-loopNs[i]))
		}
	}
	roundTripNs := int64(max(median(outside), 0))
	var servedNs, wholeNs, spansNs, queueNs, emitSum int64
	for _, i := range measured {
		servedNs += entries[i].answered.Sub(entries[i].sent).Nanoseconds()
		wholeNs += loopNs[i]
		spansNs += layerNs[i]
		emitSum += emitNs[i]
		queueNs += queueWait(entries, loopNs, i, roundTripNs)
	}
	perDecisionUs := func(ns int64) float64 { return float64(ns) / float64(len(measured)) / 1e3 }
	servedUs, wholeUs, layerUs, queueUs := perDecisionUs(servedNs), perDecisionUs(wholeNs), perDecisionUs(spansNs), perDecisionUs(queueNs)
	selfUs := servedUs - queueUs - wholeUs

	// model.ksp: the path enumeration inside RouteCandidates, timed alone
	// on the same endpoints after the replay.
	var kspNs int64
	kspCalls := 0
	for _, op := range resolved {
		if op.kind == "none" || op.kind == "release" || !p.spec.gen.auto {
			continue
		}
		start := time.Now()
		if _, err := p.fab.topo.KShortestPaths(op.flow.Path.First(), op.flow.Path.Last(), feasibility.DefaultRouteK); err != nil {
			return err
		}
		kspNs += time.Since(start).Nanoseconds()
		kspCalls++
	}
	kspUs := 0.0
	if kspCalls > 0 {
		kspUs = float64(kspNs) / float64(kspCalls) / 1e3
	}

	// Passes B and C: the warm mutations plus bounds alone, with the
	// daemon's tracer and with none, alternated twice.
	var onNs, offNs int64
	var mallocs uint64
	mutations := 0
	for round := 0; round < 2; round++ {
		for _, traced := range []bool{false, true} {
			var tr obs.Tracer
			if traced {
				tr = obs.NewMetrics()
			}
			rb := &replayer{opt: daemonOptions(tr), topo: p.fab.topo}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			for _, op := range resolved {
				if _, err := rb.apply(ctx, op); err != nil {
					return err
				}
			}
			el := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms)
			if traced {
				onNs += el
				mallocs += ms.Mallocs - before
				mutations += rb.mutations
			} else {
				offNs += el
			}
		}
	}

	c := p.counts
	res.set("serve.decision_us", servedUs)
	res.set("serve.layer_sum_us", layerUs)
	res.set("serve.queue_wait_us", queueUs)
	res.set("serve.self_us", selfUs)
	res.set("serve.residual_frac", (wholeUs-layerUs)/wholeUs)
	res.set("serve.whatif_per_batch", ratio(c["trajan_whatif_candidates_total"], c["trajan_whatif_batches_total"]))

	res.set("trajectory.mutation_us", t.perCallUs("trajectory.mutation"))
	res.set("trajectory.bounds_us", t.perCallUs("trajectory.bounds"))
	res.set("trajectory.whatif_us_per_cand", ratio(float64(t.ns["trajectory.whatif"])/1e3, float64(cands)))
	decided := sumMatching(c, "trajan_admission_")
	res.set("trajectory.sweeps_per_decision", ratio(c["trajan_smax_sweeps_total"], decided))
	res.set("trajectory.evals_per_sweep", ratio(c["trajan_smax_sweep_evals_sum"], c["trajan_smax_sweep_evals_count"]))
	res.set("trajectory.dirty_flows", ratio(c["trajan_delta_dirty_flows_sum"], c["trajan_delta_dirty_flows_count"]))
	hits, falls := c["trajan_warm_hits_total"], c["trajan_warm_fallbacks_total"]
	res.set("trajectory.warm_hit_ratio", ratio(hits, hits+falls))
	res.set("trajectory.allocs_per_mutation", ratio(float64(mallocs), float64(mutations)))

	res.set("obs.tracer_cost_us", float64(onNs-offNs)/2/n/1e3)
	res.set("obs.emit_us_per_decision", perDecisionUs(emitSum))

	if p.spec.gen.auto {
		res.set("feasibility.route_candidates_us", t.perCallUs("feasibility.route_candidates"))
		res.set("feasibility.score_routes_us", t.perCallUs("feasibility.score_routes"))
		res.set("feasibility.route_fanout", ratio(c["trajan_route_fanout_sum"], c["trajan_route_fanout_count"]))
		res.set("feasibility.route_feasible_ratio", ratio(c[`trajan_route_candidates_total{outcome="feasible"}`],
			sumMatching(c, "trajan_route_candidates_total")))
		res.set("model.ksp_us", kspUs)
	}
	res.set("model.flow_build_us", t.perCallUs("model.flow_build"))

	if p.spec.journaled {
		res.set("journal.append_us", t.perCallUs("journal.append"))
		res.set("journal.checkpoint_ms", t.perCallUs("journal.checkpoint")/1e3)
		res.set("journal.bytes_per_decision", ratio(sumMatching(c, "trajan_journal_bytes_total"),
			c[`trajan_journal_append_total{outcome="ok",tenant="default"}`]))
	}

	fmt.Fprintf(w, "  replayed %d decisions and %d probes (%d candidates) in-process; identity over %d timed-phase decisions\n",
		len(resolved), len(entries)-len(resolved), cands, len(measured))
	line(w, "setup_round_trip_us", float64(roundTripNs)/1e3, "us", len(outside))
	fmt.Fprintf(w, "  identity per decision: served %.1fus = layers %.1fus + residual %.1fus + queue wait %.1fus + serve self %.1fus\n",
		servedUs, layerUs, wholeUs-layerUs, queueUs, selfUs)
	fmt.Fprintln(w, "  layer split of a replayed decision (share of the replayed decision time, every replayed decision):")
	for _, name := range []string{"model.flow_build", "feasibility.route_candidates", "feasibility.score_routes",
		"trajectory.mutation", "trajectory.bounds", "journal.append", "journal.checkpoint", "obs.emit"} {
		fmt.Fprintf(w, "    %-30s %10.1f us/call %6.1f%% n=%d\n", name, t.perCallUs(name),
			100*ratio(float64(t.ns[name]), float64(allDecisionNs)), t.calls[name])
	}
	line(w, "trajectory.whatif_us_per_call", t.perCallUs("trajectory.whatif"), "us", t.calls["trajectory.whatif"])
	if frac := (wholeUs - layerUs) / wholeUs; frac > residualBound || frac < -residualBound {
		res.problem("layer spans leave %.1f%% of the replayed decision uncovered (bound %.0f%%)", 100*frac, 100*residualBound)
	}
	// The queue wait is an estimate, so a negative serve self is flagged
	// rather than failed: the identity does not close, but no output of
	// the service is wrong.
	if selfUs < 0 {
		fmt.Fprintf(w, "  WARNING: served decision %.1fus is shorter than its queue wait %.1fus plus the replayed decision %.1fus\n",
			servedUs, queueUs, wholeUs)
	}
	return nil
}

// queueWait estimates how long decision j waited in the single-writer
// loop behind other clients: each request of another client that the
// loop processed before j (earlier in the merged log) and that was still
// unanswered when j was sent counts for its replayed loop time, at most
// for the part of the overlap of the two flights that the loop can have
// spent on it. That part excludes one round trip outside the loop: j's
// request still travelling in and the other's answer travelling out.
func queueWait(entries []logEntry, loopNs []int64, j int, roundTripNs int64) int64 {
	e := entries[j]
	var wait int64
	for i := j - 1; i >= 0; i-- {
		o := entries[i]
		if o.client == e.client {
			continue
		}
		if !o.answered.After(e.sent) {
			break // that client's earlier requests were answered earlier still
		}
		wait += max(0, min(loopNs[i], o.answered.Sub(e.sent).Nanoseconds()-roundTripNs))
	}
	return wait
}

func sumNs(t *layerTotals) int64 {
	var s int64
	for _, v := range t.ns {
		s += v
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumMatching adds every registry series whose name starts with prefix
// (all label combinations of one metric).
func sumMatching(c map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && !strings.HasSuffix(k, "_sum") && !strings.HasSuffix(k, "_count") {
			s += v
		}
	}
	return s
}

// registryCounts reads the daemon's obs.Metrics registry: counters and
// gauges by name, histograms as name_sum and name_count.
func registryCounts(m *obs.Metrics) (map[string]float64, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(m.String()), &raw); err != nil {
		return nil, fmt.Errorf("reading the metrics registry: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var n float64
		if err := json.Unmarshal(v, &n); err == nil {
			out[k] = n
			continue
		}
		var h struct{ Sum, Count float64 }
		if err := json.Unmarshal(v, &h); err != nil {
			return nil, fmt.Errorf("registry value %s: %w", k, err)
		}
		out[k+"_sum"], out[k+"_count"] = h.Sum, h.Count
	}
	return out, nil
}

// zeroPerLayer presets every per-layer metric to 0, so a module the
// workload bypasses reads 0 rather than missing.
func zeroPerLayer(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0)
	}
}

// writeSpans dumps a replay's spans as JSON Lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
