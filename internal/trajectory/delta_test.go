package trajectory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"trajan/internal/model"
)

// deltaOptionMatrix enumerates the Options settings the mutation tests
// cover. Property 3's non-preemption penalty rides on the flows the
// tests mutate (randomBlocking), so it meets every setting.
func deltaOptionMatrix() []Options {
	return []Options{
		{},
		{Parallelism: 3},
	}
}

// maxNodeOf returns the highest node id any path visits.
func maxNodeOf(fs *model.FlowSet) model.NodeID {
	var mx model.NodeID
	for _, f := range fs.Flows {
		for _, h := range f.Path {
			if h > mx {
				mx = h
			}
		}
	}
	return mx
}

// candidateFlow draws a random line-segment flow over the node range of
// fs — the same shape workload.RandomLine produces, so Assumption 1
// holds by construction.
func candidateFlow(rng *rand.Rand, fs *model.FlowSet, name string) *model.Flow {
	nodes := int(maxNodeOf(fs)) + 1
	if nodes < 2 {
		nodes = 2
	}
	length := 2 + rng.Intn(nodes-1)
	if length > nodes {
		length = nodes
	}
	start := rng.Intn(nodes - length + 1)
	path := make([]model.NodeID, length)
	for k := range path {
		path[k] = model.NodeID(start + k)
	}
	if rng.Intn(2) == 0 {
		for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
			path[a], path[b] = path[b], path[a]
		}
	}
	return randomBlocking(rng, model.UniformFlow(name,
		model.Time(30+rng.Intn(90)), model.Time(rng.Intn(5)), 0,
		model.Time(1+rng.Intn(3)), path...))
}

// randomBlocking gives f a random per-node Blocking row in [0,3], or
// none (one draw in three), and returns it.
func randomBlocking(rng *rand.Rand, f *model.Flow) *model.Flow {
	f.Blocking = nil
	if rng.Intn(3) > 0 {
		f.Blocking = make([]model.Time, len(f.Path))
		for k := range f.Blocking {
			f.Blocking[k] = model.Time(rng.Intn(4))
		}
	}
	return f
}

// withRandomBlocking is withBlocking with a randomBlocking row per flow.
func withRandomBlocking(t *testing.T, rng *rand.Rand, fs *model.FlowSet) *model.FlowSet {
	t.Helper()
	rows := make([][]model.Time, fs.N())
	for i, f := range fs.Flows {
		rows[i] = randomBlocking(rng, f.Clone()).Blocking
	}
	return withBlocking(t, fs, rows)
}

// requireWarmMatchesCold compares the mutated analyzer against a cold
// NewAnalyzer over the same flow set: same error (string-exact) or same
// Result. SmaxSweeps is excluded — a warm start legitimately converges
// in fewer sweeps. The one tolerated divergence is a warm run that
// converges where the cold run exhausts the iteration cap (the warm
// seed starts closer to the fixed point); there the tables differ by
// construction and the warm one is the tighter, converged answer.
func requireWarmMatchesCold(t *testing.T, tag string, warm *Analyzer, opt Options) {
	t.Helper()
	cold, err := NewAnalyzer(warm.FlowSet(), opt)
	if err != nil {
		t.Fatalf("%s: cold NewAnalyzer: %v", tag, err)
	}
	wres, werr := warm.Analyze()
	cres, cerr := cold.Analyze()
	if (werr == nil) != (cerr == nil) {
		t.Fatalf("%s: warm err %v, cold err %v", tag, werr, cerr)
	}
	if werr != nil {
		if werr.Error() != cerr.Error() {
			t.Fatalf("%s: error mismatch\nwarm: %s\ncold: %s", tag, werr, cerr)
		}
		return
	}
	if wres.SmaxConverged != cres.SmaxConverged {
		if !wres.SmaxConverged {
			t.Fatalf("%s: cold converged but warm did not", tag)
		}
		return
	}
	wn, cn := *wres, *cres
	wn.SmaxSweeps, cn.SmaxSweeps = 0, 0
	if !reflect.DeepEqual(&wn, &cn) {
		t.Fatalf("%s: warm Result diverges from cold rebuild\nwarm: %+v\ncold: %+v", tag, wres, cres)
	}
	// Kept views are remapped, not rebuilt; their read sets drive dirty
	// propagation, so each must equal a fresh build's.
	for i := range cold.full {
		views := [][2]*viewCache{{warm.full[i], cold.full[i]}}
		for k := range cold.prefix[i] {
			if warm.prefix[i] != nil {
				views = append(views, [2]*viewCache{warm.prefix[i][k], cold.prefix[i][k]})
			}
		}
		for _, v := range views {
			if v[0] != nil && v[1] != nil && !slices.Equal(v[0].readIDs, v[1].readIDs) {
				t.Fatalf("%s: flow %d view %d reads %v, a fresh build reads %v",
					tag, i, v[1].plen, v[0].readIDs, v[1].readIDs)
			}
		}
	}
	// Single-flow entry point too: it runs the fullCache + safeEval
	// path against the (possibly warm-started) table.
	for i := 0; i < warm.FlowSet().N(); i++ {
		wb, werr := warm.AnalyzeFlow(i)
		cb, cerr := cold.AnalyzeFlow(i)
		if wb != cb || (werr == nil) != (cerr == nil) {
			t.Fatalf("%s: AnalyzeFlow(%d): warm (%d,%v), cold (%d,%v)", tag, i, wb, werr, cb, cerr)
		}
	}
}

// TestDeltaScriptedMutationsMatchCold drives a fixed add→update→remove
// script, then a what-if batch, through every option setting on every
// fuzzed set whose flows carry random Blocking, comparing against a
// cold rebuild after each step.
func TestDeltaScriptedMutationsMatchCold(t *testing.T) {
	lowerFanoutFloor(t)
	for si, set := range fuzzedSets(t, 12) {
		for oi, opt := range deltaOptionMatrix() {
			rng := rand.New(rand.NewSource(int64(si*31 + oi)))
			base := withRandomBlocking(t, rng, set)
			a, err := NewAnalyzer(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			tag := func(step string) string { return step }

			// Cold-state mutation: no prior analysis, seeds from scratch.
			idx, err := a.AddFlow(candidateFlow(rng, base, "cand-cold"))
			if err != nil {
				t.Fatalf("set %d opt %d: AddFlow(cold): %v", si, oi, err)
			}
			if idx != base.N() {
				t.Fatalf("set %d opt %d: AddFlow index %d, want %d", si, oi, idx, base.N())
			}
			requireWarmMatchesCold(t, tag("add-cold"), a, opt)

			// Warm-state mutations: analysis ran, the next mutations
			// re-seed from the converged table.
			if _, err := a.AddFlow(candidateFlow(rng, base, "cand-warm")); err != nil {
				t.Fatalf("set %d opt %d: AddFlow(warm): %v", si, oi, err)
			}
			requireWarmMatchesCold(t, tag("add-warm"), a, opt)

			upd := candidateFlow(rng, base, "cand-upd")
			if err := a.UpdateFlow(rng.Intn(a.FlowSet().N()), upd); err != nil {
				t.Fatalf("set %d opt %d: UpdateFlow: %v", si, oi, err)
			}
			requireWarmMatchesCold(t, tag("update"), a, opt)

			if err := a.RemoveFlow(rng.Intn(a.FlowSet().N())); err != nil {
				t.Fatalf("set %d opt %d: RemoveFlow: %v", si, oi, err)
			}
			requireWarmMatchesCold(t, tag("remove"), a, opt)

			// Chained mutations without intervening analysis.
			if _, err := a.AddFlow(candidateFlow(rng, base, "cand-chain-a")); err != nil {
				t.Fatalf("set %d opt %d: AddFlow(chain): %v", si, oi, err)
			}
			if err := a.UpdateFlow(0, candidateFlow(rng, base, "cand-chain-b")); err != nil {
				t.Fatalf("set %d opt %d: UpdateFlow(chain): %v", si, oi, err)
			}
			if a.FlowSet().N() > 1 {
				if err := a.RemoveFlow(0); err != nil {
					t.Fatalf("set %d opt %d: RemoveFlow(chain): %v", si, oi, err)
				}
			}
			requireWarmMatchesCold(t, tag("chain"), a, opt)

			// A what-if batch over the mutated set: each outcome equals
			// its candidate applied to a fresh analyzer.
			cur := a.FlowSet()
			cands := []Candidate{
				{Add: candidateFlow(rng, base, "cand-wi-add")},
				{Update: candidateFlow(rng, base, "cand-wi-upd"), Index: rng.Intn(cur.N())},
				{Remove: true, Index: rng.Intn(cur.N())},
			}
			for k, out := range a.WhatIf(cands) {
				requireOutcomeMatches(t, fmt.Sprintf("set %d opt %d whatif %d", si, oi, k),
					out, coldCandidateOutcome(t, cur, opt, cands[k]))
			}
		}
	}
}

// TestDeltaChurnPropertyWarmVsCold is the property-style churn test:
// a long random add/remove/update walk on one Analyzer, warm results
// compared to a cold rebuild after every step, with a goroutine-leak
// assertion at the end.
func TestDeltaChurnPropertyWarmVsCold(t *testing.T) {
	lowerFanoutFloor(t)
	before := runtime.NumGoroutine()
	sets := fuzzedSets(t, 6)
	for si, base := range sets {
		for _, opt := range []Options{{}, {Parallelism: 3}} {
			rng := rand.New(rand.NewSource(int64(1000 + si)))
			a, err := NewAnalyzer(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			nextName := 0
			failures := 0
			for step := 0; step < 30; step++ {
				n := a.FlowSet().N()
				op := rng.Intn(3)
				if n <= 1 {
					op = 0
				} else if n >= base.N()+4 {
					op = 1 // keep the walk bounded
				}
				var err error
				switch op {
				case 0:
					name := "churn"
					if rng.Intn(4) > 0 { // collide deliberately sometimes
						nextName++
						name = name + "-" + string(rune('a'+nextName%26)) + string(rune('a'+(nextName/26)%26))
					} else if n > 0 {
						name = a.FlowSet().Flows[rng.Intn(n)].Name
					}
					_, err = a.AddFlow(candidateFlow(rng, base, name))
				case 1:
					err = a.RemoveFlow(rng.Intn(n))
				default:
					err = a.UpdateFlow(rng.Intn(n), candidateFlow(rng, base, "churn-upd"))
				}
				if err != nil {
					// Rejected mutation (duplicate name etc.): the
					// analyzer must be untouched and stay usable.
					if !errors.Is(err, model.ErrInvalidConfig) {
						t.Fatalf("set %d step %d: unexpected mutation error: %v", si, step, err)
					}
					failures++
					continue
				}
				// Compare on a sparse schedule plus always the last step
				// (full compare per step makes the walk quadratic).
				if step%5 == 0 || step == 29 {
					requireWarmMatchesCold(t, "churn", a, opt)
				}
			}
			if failures == 30 {
				t.Fatalf("set %d: every mutation was rejected", si)
			}
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak: %d before churn, %d after", before, n)
	}
}

// TestDeltaUndoFastPathBitExact: add → analyze → remove(last) must
// restore the exact pre-add state, including the already-converged
// table (no recompute: the table pointer itself survives).
func TestDeltaUndoFastPathBitExact(t *testing.T) {
	fs := model.PaperExample()
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	tableBefore := &a.smax[0][0]

	for round := 0; round < 3; round++ {
		idx, err := a.AddFlow(model.UniformFlow("probe", 50, 0, 0, 3, 2, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Analyze(); err != nil {
			t.Fatal(err)
		}
		if err := a.RemoveFlow(idx); err != nil {
			t.Fatal(err)
		}
		got, err := a.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: result after undo differs from pre-add", round)
		}
		if &a.smax[0][0] != tableBefore {
			t.Fatalf("round %d: undo recomputed the Smax table instead of restoring it", round)
		}
	}
}

// TestDeltaChainedAddsUndoInOrder: two stacked adds pop in LIFO order.
// The first pop is the O(1) undo, which restores the state p2 replaced
// without its own derivation; the second is therefore a general
// release, and both match the results before each add.
func TestDeltaChainedAddsUndoInOrder(t *testing.T) {
	fs := model.PaperExample()
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	i1, err := a.AddFlow(model.UniformFlow("p1", 60, 0, 0, 2, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	i2, err := a.AddFlow(model.UniformFlow("p2", 70, 0, 0, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFlow(i2); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Analyze(); err != nil || !reflect.DeepEqual(mid, got) {
		t.Fatalf("after popping p2: err %v, result mismatch %v", err, !reflect.DeepEqual(mid, got))
	}
	if err := a.RemoveFlow(i1); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Analyze(); err != nil || !reflect.DeepEqual(base, got) {
		t.Fatalf("after popping p1: err %v, result mismatch", err)
	}
}

// TestDeltaMutationErrorsLeaveAnalyzerUsable: rejected mutations carry
// the exact NewFlowSet error strings and do not disturb the analyzer.
func TestDeltaMutationErrorsLeaveAnalyzerUsable(t *testing.T) {
	fs := model.PaperExample()
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.AddFlow(model.UniformFlow("tau1", 40, 0, 0, 2, 1, 3)); err == nil ||
		!strings.Contains(err.Error(), "duplicate flow name") {
		t.Errorf("duplicate add: %v", err)
	}
	if _, err := a.AddFlow(model.UniformFlow("bad", 0, 0, 0, 2, 1, 3)); !errors.Is(err, model.ErrInvalidConfig) {
		t.Errorf("invalid flow add: %v", err)
	}
	if err := a.RemoveFlow(99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range remove: %v", err)
	}
	if err := a.RemoveFlow(-1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("negative remove: %v", err)
	}
	if err := a.UpdateFlow(99, model.UniformFlow("x", 40, 0, 0, 2, 1, 3)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range update: %v", err)
	}
	// Removing the last flow leaves the empty set, and adding it back
	// equals a cold analysis of that one flow.
	solo := model.UniformFlow("solo", 40, 0, 0, 2, 1, 2)
	one := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{solo})
	b, err := NewAnalyzer(one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveFlow(0); err != nil {
		t.Fatalf("removing the last flow: %v", err)
	}
	if bounds, err := b.Bounds(); b.FlowSet().N() != 0 || err != nil || !reflect.DeepEqual(bounds, []model.Time{}) {
		t.Fatalf("emptied analyzer: N %d, bounds %v, err %v", b.FlowSet().N(), bounds, err)
	}
	if _, err := b.AddFlow(solo); err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze(one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Analyze(); err != nil || !reflect.DeepEqual(cold, got) {
		t.Fatalf("re-added flow: err %v, got %+v, cold %+v", err, got, cold)
	}

	got, err := a.Analyze()
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("analyzer disturbed by rejected mutations: err %v", err)
	}
}

// TestDeltaRecoversFromLatchedError: an analyzer whose set diverged
// (latched ErrUnstable) must analyze cleanly again once the offending
// flow is removed — mutations clear the error latch.
func TestDeltaRecoversFromLatchedError(t *testing.T) {
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("ok", 40, 0, 0, 2, 1, 2, 3),
		model.UniformFlow("hog1", 5, 0, 0, 3, 1, 2),
		model.UniformFlow("hog2", 5, 0, 0, 3, 1, 2),
	})
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); !errors.Is(err, model.ErrUnstable) {
		t.Fatalf("overloaded set: %v, want ErrUnstable", err)
	}
	// Latched: repeat queries return the same error.
	if _, err := a.Analyze(); !errors.Is(err, model.ErrUnstable) {
		t.Fatalf("latched error lost: %v", err)
	}
	if err := a.RemoveFlow(2); err != nil {
		t.Fatal(err)
	}
	requireWarmMatchesCold(t, "post-recovery", a, Options{})
}

// TestDeltaCanceledWarmRunRetries: a cancellation mid-warm-run must
// not poison the seed — the next live-context call converges to the
// exact cold result.
func TestDeltaCanceledWarmRunRetries(t *testing.T) {
	fs := model.PaperExample()
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddFlow(model.UniformFlow("probe", 50, 1, 0, 3, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < 6; budget++ {
		ctx := &countdownCtx{Context: context.Background(), remaining: budget}
		if _, err := a.AnalyzeContext(ctx); err == nil {
			break // budget large enough to finish
		} else if !errors.Is(err, model.ErrCanceled) {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
	requireWarmMatchesCold(t, "post-cancel", a, Options{})
}
