package trajectory

import (
	"errors"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// TestBusyPeriodBoundaries compares the engine's busy period with the
// reference's at the edges of its one-pass case (finishView: the first
// iterate b0 = C^{slow}_i + Σ_j C^{slow_{j,i}}_j is the least fixed
// point when b0 ≤ min T): results, error strings and the traced
// bslow.fixpoint events, iteration counts included. Every set is two
// flows over nodes 1 and 2, so each view's b0 is the sum of both costs.
// A saturated b0 lies on the rail, above every valid period, so the
// saturating set checks only that the general path (bslowFixpoint)
// reports the reference's ErrOverflow.
func TestBusyPeriodBoundaries(t *testing.T) {
	const huge = model.Time(1) << 59 // two such costs reach the rail 2^60
	cases := []struct {
		name  string
		flows []*model.Flow
		// maxIters bounds every event's Iters; minIters must be reached
		// by at least one event.
		minIters, maxIters int
		wantErr            error
	}{
		{"b0 at the flow's own period", []*model.Flow{
			model.UniformFlow("f", 6, 0, 0, 2, 1, 2),
			model.UniformFlow("g", 8, 0, 0, 4, 1, 2),
		}, 1, 1, nil},
		{"b0 at an interferer's period", []*model.Flow{
			model.UniformFlow("f", 12, 0, 0, 2, 1, 2),
			model.UniformFlow("g", 6, 0, 0, 4, 1, 2),
		}, 1, 1, nil},
		{"b0 one tick above the smallest period", []*model.Flow{
			model.UniformFlow("f", 6, 0, 0, 2, 1, 2),
			model.UniformFlow("g", 8, 0, 0, 5, 1, 2),
		}, 2, 256, nil},
		{"b0 saturates", []*model.Flow{
			model.UniformFlow("f", 3*huge/2, 0, 0, huge, 1, 2),
			model.UniformFlow("g", 3*huge/2, 0, 0, huge, 1, 2),
		}, 0, 0, model.ErrOverflow},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := model.MustNewFlowSet(model.UnitDelayNetwork(), c.flows)
			var refEv, engEv eventBuffer
			want, wantErr := referenceAnalyze(fs, Options{Tracer: &refEv})
			got, gotErr := Analyze(fs, Options{Tracer: &engEv})
			if c.wantErr != nil {
				if !errors.Is(wantErr, c.wantErr) || !errors.Is(gotErr, c.wantErr) {
					t.Fatalf("reference err %v, engine err %v, want %v on both", wantErr, gotErr, c.wantErr)
				}
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("reference err %q, engine err %q", wantErr, gotErr)
				}
			} else {
				if wantErr != nil || gotErr != nil {
					t.Fatalf("reference err %v, engine err %v", wantErr, gotErr)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("engine Result diverges\nreference: %+v\nengine:    %+v", want, got)
				}
			}
			// The reference re-solves a view's busy period on every
			// evaluation, the engine once per view build: the distinct
			// events must agree.
			ref, eng := bslowEvents(refEv), bslowEvents(engEv)
			if !reflect.DeepEqual(ref, eng) {
				t.Fatalf("bslow.fixpoint events differ\nreference: %v\nengine:    %v", ref, eng)
			}
			reached := c.minIters == 0
			for e := range eng {
				if e.Iters > c.maxIters {
					t.Errorf("event %+v took more than %d iterations", e, c.maxIters)
				}
				reached = reached || e.Iters >= c.minIters
			}
			if !reached {
				t.Errorf("no event took %d or more iterations: %v", c.minIters, eng)
			}
		})
	}
}

// bslowEvent is the content of one bslow.fixpoint event.
type bslowEvent struct {
	Flow  string
	Iters int
	Value model.Time
}

// bslowEvents returns the distinct bslow.fixpoint events of a trace.
func bslowEvents(evs []obs.Event) map[bslowEvent]bool {
	out := map[bslowEvent]bool{}
	for _, e := range evs {
		if e.Type == obs.EvBslow {
			out[bslowEvent{e.Flow, e.Iters, e.Value}] = true
		}
	}
	return out
}
