package trajectory

import (
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// eventsOfType filters a collected trace.
func eventsOfType(evs []obs.Event, typ string) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestNilTracerHotPathAllocFree enforces the tentpole's zero-overhead
// contract: with the tracer disabled, the steady-state query path of a
// converged analyzer allocates nothing — emission sites may construct
// Event values only behind their nil checks.
func TestNilTracerHotPathAllocFree(t *testing.T) {
	a, err := NewAnalyzer(model.PaperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	n := a.fs.N()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.AnalyzeFlow(i % n); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("converged AnalyzeFlow allocates %.1f objects/op with a nil tracer, want 0", allocs)
	}
}

// TestTracerPreservesResults: tracing is observation only — the Result
// with a tracer attached is bit-identical to the untraced one.
func TestTracerPreservesResults(t *testing.T) {
	fs := model.PaperExample()
	plain, err := Analyze(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c obs.Collector
	traced, err := Analyze(fs, Options{Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracer changed the Result")
	}
	if len(c.Events()) == 0 {
		t.Error("no events collected")
	}
}

// TestFlowBoundDecompSumsToBound is the acceptance criterion's core
// identity: for every flow and every Options setting, the emitted
// decomposition sums exactly to the reported bound,
//
//	Ri = Σ work + self + countedTwice + links + δi − t*.
func TestFlowBoundDecompSumsToBound(t *testing.T) {
	paper := model.PaperExample()
	np := make([][]model.Time, paper.N())
	for i, f := range paper.Flows {
		np[i] = make([]model.Time, len(f.Path))
		np[i][0] = 3 // a non-preemption charge at the ingress node
	}
	for name, tc := range map[string]engineCase{
		"default":        {paper, Options{}},
		"non-preemption": {withBlocking(t, paper, np), Options{}},
	} {
		fs, opt := tc.fs, tc.opt
		var c obs.Collector
		opt.Tracer = &c
		res, err := Analyze(fs, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bounds := eventsOfType(c.Events(), obs.EvFlowBound)
		if len(bounds) != fs.N() {
			t.Fatalf("%s: %d flow.bound events for %d flows", name, len(bounds), fs.N())
		}
		for _, e := range bounds {
			i := -1
			for j, f := range fs.Flows {
				if f.Name == e.Flow {
					i = j
				}
			}
			if i < 0 {
				t.Fatalf("%s: event names unknown flow %q", name, e.Flow)
			}
			d := e.Decomp
			if d == nil {
				t.Fatalf("%s: flow %q event has no decomposition", name, e.Flow)
			}
			if d.R != res.Bounds[i] || e.Value != res.Bounds[i] {
				t.Errorf("%s: flow %q decomp R=%d value=%d, reported %d",
					name, e.Flow, d.R, e.Value, res.Bounds[i])
			}
			if sum := d.Sum(); sum != d.R {
				t.Errorf("%s: flow %q decomposition sums to %d, bound is %d (decomp %+v)",
					name, e.Flow, sum, d.R, d)
			}
			if d.Self != d.SelfPackets*d.SelfCharge {
				t.Errorf("%s: flow %q self term %d ≠ %d pkt × %d",
					name, e.Flow, d.Self, d.SelfPackets, d.SelfCharge)
			}
			for _, wt := range d.Terms {
				if wt.Work != wt.Packets*wt.Charge {
					t.Errorf("%s: flow %q term %q work %d ≠ %d × %d",
						name, e.Flow, wt.Flow, wt.Work, wt.Packets, wt.Charge)
				}
			}
		}
	}
}

// TestTraceLifecycle walks one cold analysis, a warm mutation cycle and
// an undo through the event stream, pinning the span structure the docs
// describe: seed → sweeps → done, then delta.mutation records with the
// warm/cold/undo outcome.
func TestTraceLifecycle(t *testing.T) {
	var c obs.Collector
	a, err := NewAnalyzer(model.PaperExample(), Options{Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	evs := c.Events()
	if n := len(eventsOfType(evs, obs.EvAnalysisStart)); n != 1 {
		t.Errorf("%d analysis.start events, want 1", n)
	}
	seeds := eventsOfType(evs, obs.EvSmaxSeed)
	if len(seeds) != 1 || seeds[0].Op != "cold" || seeds[0].Dirty != a.fs.N() {
		t.Errorf("cold seed events = %+v, want one cold all-dirty seed", seeds)
	}
	sweeps := eventsOfType(evs, obs.EvSmaxSweep)
	if len(sweeps) == 0 {
		t.Fatal("no sweep events")
	}
	for k, s := range sweeps {
		if s.Sweep != k+1 {
			t.Errorf("sweep %d numbered %d", k, s.Sweep)
		}
	}
	if sweeps[len(sweeps)-1].Changed != 0 {
		t.Errorf("final sweep reports %d changed entries, want 0", sweeps[len(sweeps)-1].Changed)
	}
	dones := eventsOfType(evs, obs.EvSmaxDone)
	if len(dones) != 1 || dones[0].Outcome != "converged" || dones[0].Sweep != len(sweeps) {
		t.Errorf("done events = %+v, want one converged after %d sweeps", dones, len(sweeps))
	}
	if len(eventsOfType(evs, obs.EvBslow)) == 0 {
		t.Error("no busy-period convergence events")
	}

	// Warm mutation: add, re-analyze, undo-remove.
	c.Reset()
	nf := model.UniformFlow("newcomer", 72, 0, 0, 2, 1, 3)
	idx, err := a.AddFlow(nf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFlow(idx); err != nil {
		t.Fatal(err)
	}
	evs = c.Events()
	deltas := eventsOfType(evs, obs.EvDelta)
	if len(deltas) != 2 {
		t.Fatalf("delta events = %+v, want add + undo", deltas)
	}
	if deltas[0].Op != "add" || deltas[0].Flow != "newcomer" || deltas[0].Outcome != "warm" || deltas[0].Dirty == 0 {
		t.Errorf("add event = %+v", deltas[0])
	}
	if deltas[1].Op != "remove" || deltas[1].Outcome != "undo" {
		t.Errorf("undo event = %+v", deltas[1])
	}
	seeds = eventsOfType(evs, obs.EvSmaxSeed)
	if len(seeds) != 1 || seeds[0].Op != "warm" || seeds[0].Dirty != deltas[0].Dirty {
		t.Errorf("warm seed events = %+v, want dirty count %d", seeds, deltas[0].Dirty)
	}
	dones = eventsOfType(evs, obs.EvSmaxDone)
	if len(dones) != 1 || dones[0].Op != "warm" || dones[0].Outcome != "converged" {
		t.Errorf("warm done events = %+v", dones)
	}

	// Update after undo: the analyzer re-converged state is gone, so the
	// mutation records against the pending seed.
	c.Reset()
	upd := a.fs.Flows[0].Clone()
	upd.Period = 40
	if err := a.UpdateFlow(0, upd); err != nil {
		t.Fatal(err)
	}
	deltas = eventsOfType(c.Events(), obs.EvDelta)
	if len(deltas) != 1 || deltas[0].Op != "update" || deltas[0].Flow != upd.Name {
		t.Errorf("update event = %+v", deltas)
	}
}

// TestWarmFallbackEmitsEvents: a mutation that destabilizes the set
// makes the warm run fail; the trace must show the warm attempt, the
// fallback, and the bit-identical cold rerun's error outcome.
func TestWarmFallbackEmitsEvents(t *testing.T) {
	var c obs.Collector
	a, err := NewAnalyzer(model.PaperExample(), Options{Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	// Utilization 1 on the busiest corridor on top of the existing load:
	// the prefix fixed point diverges past the horizon.
	if _, err := a.AddFlow(model.UniformFlow("hog", 10, 0, 0, 10, 2, 3, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err == nil {
		t.Fatal("overloaded set analysed without error")
	}
	evs := c.Events()
	dones := eventsOfType(evs, obs.EvSmaxDone)
	if len(dones) != 2 {
		t.Fatalf("done events = %+v, want warm fallback + cold error", dones)
	}
	if dones[0].Op != "warm" || dones[0].Outcome != "fallback" {
		t.Errorf("first done = %+v, want warm fallback", dones[0])
	}
	if dones[1].Op != "cold" || dones[1].Outcome != "error" {
		t.Errorf("second done = %+v, want cold error", dones[1])
	}
	seeds := eventsOfType(evs, obs.EvSmaxSeed)
	if len(seeds) != 2 || seeds[0].Op != "warm" || seeds[1].Op != "cold" {
		t.Errorf("seed events = %+v, want warm then cold", seeds)
	}
}

// TestSaturationEventOnUnboundedVerdict: a saturated bound emits the
// saturation marker and a flow.bound event flagged Unbounded with no
// term breakdown.
func TestSaturationEventOnUnboundedVerdict(t *testing.T) {
	var c obs.Collector
	res, err := Analyze(colossusSet(t), Options{Horizon: model.TimeInfinity, Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unbounded(0) {
		t.Fatal("fixture did not saturate")
	}
	evs := c.Events()
	sat := eventsOfType(evs, obs.EvSaturation)
	if len(sat) != 1 || sat[0].Flow != "colossus" {
		t.Errorf("saturation events = %+v", sat)
	}
	bounds := eventsOfType(evs, obs.EvFlowBound)
	if len(bounds) != 1 {
		t.Fatalf("flow.bound events = %+v", bounds)
	}
	d := bounds[0].Decomp
	if d == nil || !d.Unbounded || len(d.Terms) != 0 {
		t.Errorf("unbounded decomp = %+v, want Unbounded with no terms", d)
	}
	if !model.IsUnbounded(d.R) {
		t.Errorf("unbounded decomp R = %d", d.R)
	}
}

// TestWhatIfEvents: a serial batch traces the batch header and one
// closing event per candidate with its op and outcome.
func TestWhatIfEvents(t *testing.T) {
	var c obs.Collector
	a, err := NewAnalyzer(model.PaperExample(), Options{Parallelism: 1, Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	upd := a.fs.Flows[1].Clone()
	upd.Period = 48
	out := a.WhatIf([]Candidate{
		{Add: model.UniformFlow("probe", 72, 0, 0, 2, 1, 3)},
		{Update: upd, Index: 1},
		{Remove: true, Index: 99}, // out of range: an err outcome
	})
	batches := eventsOfType(c.Events(), obs.EvWhatIfBatch)
	if len(batches) != 1 || batches[0].Candidates != 3 || batches[0].Workers != 1 {
		t.Errorf("batch events = %+v", batches)
	}
	cands := eventsOfType(c.Events(), obs.EvWhatIfCand)
	if len(cands) != 3 {
		t.Fatalf("candidate events = %+v", cands)
	}
	wantOps := []string{"add", "update", "remove"}
	wantOut := []string{"ok", "ok", "err"}
	for k, e := range cands {
		if e.Index != k+1 || e.Op != wantOps[k] || e.Outcome != wantOut[k] {
			t.Errorf("candidate event %d = %+v, want op %s outcome %s", k, e, wantOps[k], wantOut[k])
		}
	}
	if out[2].Err == nil {
		t.Error("out-of-range removal did not error")
	}
}
