package trajectory

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
)

// coldOutcome is what a candidate's outcome must be, and whether the
// cold fixed point behind it converged.
type coldOutcome struct {
	WhatIfOutcome
	converged bool
}

// coldCandidateOutcome computes a candidate's expected outcome: mutate a
// throwaway analyzer over the base set from scratch, analyze.
func coldCandidateOutcome(t *testing.T, base *model.FlowSet, opt Options, c Candidate) coldOutcome {
	t.Helper()
	a, err := NewAnalyzer(base, opt)
	if err != nil {
		t.Fatalf("cold NewAnalyzer: %v", err)
	}
	switch {
	case c.Add != nil:
		_, err = a.AddFlow(c.Add)
	case c.Update != nil:
		err = a.UpdateFlow(c.Index, c.Update)
	case c.Remove:
		err = a.RemoveFlow(c.Index)
	default:
		return coldOutcome{WhatIfOutcome: WhatIfOutcome{Err: errors.New("no mutation")}}
	}
	if err != nil {
		return coldOutcome{WhatIfOutcome: WhatIfOutcome{Err: err}}
	}
	res, err := a.Analyze()
	if err != nil {
		return coldOutcome{WhatIfOutcome: WhatIfOutcome{Err: err}}
	}
	return coldOutcome{WhatIfOutcome{Bounds: res.Bounds}, res.SmaxConverged}
}

func requireOutcomeMatches(t *testing.T, tag string, got WhatIfOutcome, want coldOutcome) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: err %v, want %v", tag, got.Err, want.Err)
	}
	if got.Err != nil {
		if got.Err.Error() != want.Err.Error() {
			t.Fatalf("%s: error mismatch\ngot:  %s\nwant: %s", tag, got.Err, want.Err)
		}
		return
	}
	if !want.converged {
		return // the fork may have warm-started past the cold iteration cap
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatalf("%s: Bounds mismatch\ngot:  %v\nwant: %v", tag, got.Bounds, want.Bounds)
	}
}

// TestWhatIfMatchesColdPerCandidate: every outcome of a mixed batch is
// bit-identical to a cold per-candidate rebuild, under both serial and
// parallel evaluation, from both a converged and an unconverged base.
func TestWhatIfMatchesColdPerCandidate(t *testing.T) {
	for si, base := range fuzzedSets(t, 8) {
		rng := rand.New(rand.NewSource(int64(500 + si)))
		cands := []Candidate{
			{Add: candidateFlow(rng, base, "wi-add-1")},
			{Add: candidateFlow(rng, base, "wi-add-2")},
			{Update: candidateFlow(rng, base, "wi-upd"), Index: rng.Intn(base.N())},
			{Remove: true, Index: rng.Intn(base.N())},
			{Add: base.Flows[0]},                // duplicate name: must error
			{Remove: true, Index: base.N() + 7}, // out of range: must error
			{},                                  // no mutation: must error
			{Update: candidateFlow(rng, base, "wi-upd-2"), Index: 0},
		}
		if base.N() > 1 {
			cands = append(cands, Candidate{Remove: true, Index: base.N() - 1})
		}
		for _, opt := range []Options{{}, {Parallelism: 4}} {
			for _, prime := range []bool{false, true} {
				a, err := NewAnalyzer(base, opt)
				if err != nil {
					t.Fatal(err)
				}
				var baseRes *Result
				var baseErr error
				if prime {
					baseRes, baseErr = a.Analyze()
				}
				out := a.WhatIf(cands)
				if len(out) != len(cands) {
					t.Fatalf("set %d: %d outcomes for %d candidates", si, len(out), len(cands))
				}
				for k := range cands {
					want := coldCandidateOutcome(t, base, opt, cands[k])
					if cands[k].Add == nil && cands[k].Update == nil && !cands[k].Remove {
						if out[k].Err == nil || !errors.Is(out[k].Err, model.ErrInvalidConfig) {
							t.Fatalf("set %d cand %d: empty candidate gave %v", si, k, out[k].Err)
						}
						continue
					}
					requireOutcomeMatches(t, "whatif", out[k], want)
				}
				// The base analyzer must be untouched by the batch.
				if prime {
					res2, err2 := a.Analyze()
					if (err2 == nil) != (baseErr == nil) {
						t.Fatalf("set %d: base error changed: %v -> %v", si, baseErr, err2)
					}
					if err2 == nil && !reflect.DeepEqual(baseRes, res2) {
						t.Fatalf("set %d: base Result changed after WhatIf", si)
					}
				} else {
					requireWarmMatchesCold(t, "base-after-whatif", a, opt)
				}
				if got := a.FlowSet().N(); got != base.N() {
					t.Fatalf("set %d: base flow count changed to %d", si, got)
				}
			}
		}
	}
}

// TestWhatIfEmptyAndCanceled covers the trivial batch and a canceled
// context, which must mark every outcome ErrCanceled.
func TestWhatIfEmptyAndCanceled(t *testing.T) {
	fs := model.PaperExample()
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := a.WhatIf(nil); len(out) != 0 {
		t.Fatalf("nil batch produced %d outcomes", len(out))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := a.WhatIfContext(ctx, []Candidate{
		{Add: model.UniformFlow("x", 40, 0, 0, 2, 1, 3)},
		{Remove: true, Index: 0},
	})
	for k, o := range out {
		if !errors.Is(o.Err, model.ErrCanceled) {
			t.Errorf("candidate %d: err %v, want ErrCanceled", k, o.Err)
		}
	}
	// The analyzer is still usable afterwards.
	if _, err := a.Analyze(); err != nil {
		t.Fatalf("base unusable after canceled WhatIf: %v", err)
	}
}

// TestWhatIfForksLeaveTheUndoToTheBase: removals of the flow the base
// just added, evaluated on parallel forks, each take the general path
// rather than restoring the state the add replaced, whose view arrays
// the base owns and the forks would fill concurrently. Every outcome is
// the cold analysis of the set before the add.
func TestWhatIfForksLeaveTheUndoToTheBase(t *testing.T) {
	fs := pinnedClosSet(t, 20)
	want, err := Analyze(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Parallelism: 4}
	a, _ := NewAnalyzer(fs, opt)
	last, err := a.AddFlow(pinnedClosSet(t, 21).Flows[20])
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]Candidate, 4)
	for k := range cands {
		cands[k] = Candidate{Remove: true, Index: last}
	}
	for k, o := range a.WhatIf(cands) {
		if o.Err != nil || !reflect.DeepEqual(o.Bounds, want.Bounds) {
			t.Fatalf("candidate %d: bounds %v (%v), cold %v", k, o.Bounds, o.Err, want.Bounds)
		}
	}
}
