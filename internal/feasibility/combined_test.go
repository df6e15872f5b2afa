package feasibility

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// combinedOutcome is everything a combined analysis returns or emits:
// the result, the error string and the provenance trace bytes.
type combinedOutcome struct {
	res   *BackendResult
	err   string
	trace []byte
}

func runCombined(ctx context.Context, fs *model.FlowSet, workers int) combinedOutcome {
	var buf bytes.Buffer
	res, err := AnalyzeBackend(ctx, fs, BackendCombined, trajectory.Options{
		Parallelism: workers, Tracer: obs.NewJSONTracer(&buf),
	})
	o := combinedOutcome{res: res, trace: buf.Bytes()}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestCombinedDeterminism: the combined analysis returns deeply equal
// results, identical error strings and identical provenance traces at
// every Parallelism × GOMAXPROCS setting, serial included — with one
// backend diverging (it joins as an all-Unbounded candidate), with a
// canceled context, and with panics in two backend goroutines (the
// first in Backends() order is reported, whichever finished first).
func TestCombinedDeterminism(t *testing.T) {
	// Six flows loading every node to utilization 1: the holistic busy
	// period does not converge, trajectory and netcalc certify bounds.
	var heavy []*model.Flow
	for k := 0; k < 6; k++ {
		heavy = append(heavy, model.UniformFlow(fmt.Sprintf("f%d", k), 30, 0, 0, 5, 1, 2, 3, 4, 5, 6))
	}
	diverging := model.MustNewFlowSet(model.UnitDelayNetwork(), heavy)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		fs   *model.FlowSet
		ctx  context.Context
		hook func(context.Context, Backend)
		want string // error substring; "" = success
	}{
		{"paper", model.PaperExample(), context.Background(), nil, ""},
		{"one backend diverges", diverging, context.Background(), nil, ""},
		{"canceled", model.PaperExample(), canceled, nil, "canceled"},
		{"backend panics", model.PaperExample(), context.Background(), func(_ context.Context, b Backend) {
			if b != BackendTrajectory {
				panic("boom in " + string(b))
			}
		}, "backend holistic: feasibility: internal panic: boom in holistic"},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range cases {
		testBackendHook = c.hook
		var ref combinedOutcome
		first := true
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 8} {
				got := runCombined(c.ctx, c.fs, workers)
				if first {
					ref, first = got, false
					if c.want == "" && got.err != "" {
						t.Fatalf("%s: %s", c.name, got.err)
					}
					if c.want != "" && !bytes.Contains([]byte(got.err), []byte(c.want)) {
						t.Fatalf("%s: error %q, want it to contain %q", c.name, got.err, c.want)
					}
					continue
				}
				if got.err != ref.err {
					t.Errorf("%s procs %d workers %d: error %q, serial %q", c.name, procs, workers, got.err, ref.err)
				}
				if !reflect.DeepEqual(got.res, ref.res) {
					t.Errorf("%s procs %d workers %d: result differs from serial", c.name, procs, workers)
				}
				if !bytes.Equal(got.trace, ref.trace) {
					t.Errorf("%s procs %d workers %d: provenance trace differs from serial", c.name, procs, workers)
				}
			}
		}
		testBackendHook = nil
		if c.name == "one backend diverges" {
			unbounded := false
			for _, cand := range ref.res.Provenance[0].Candidates {
				unbounded = unbounded || cand.Unbounded
			}
			if !unbounded {
				t.Errorf("%s: no all-Unbounded candidate; the fixture no longer diverges", c.name)
			}
		}
	}
}
