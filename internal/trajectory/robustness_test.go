package trajectory

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// colossusSet is a STABLE single-flow set (utilization 0.5) whose
// in-domain parameters are large enough that the full-path Property-2
// sum exceeds the 2^60 time domain: 8 hops of cost 2^57 against a
// period of 2^58. Every prefix stays finite (7·2^57 < 2^60), so the
// Smax estimators converge; only the full view saturates.
func colossusSet(t *testing.T) *model.FlowSet {
	t.Helper()
	const huge = model.Time(1) << 57
	f := model.UniformFlow("colossus", 2*huge, 0, 0, huge, 1, 2, 3, 4, 5, 6, 7, 8)
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// overloadSet has utilization 2 at every shared node.
func overloadSet(t *testing.T) *model.FlowSet {
	t.Helper()
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("hog1", 10, 0, 0, 10, 1, 2, 3),
		model.UniformFlow("hog2", 10, 0, 0, 10, 1, 2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSaturatedBoundDegradesToUnbounded: with divergence aborts
// disabled (Horizon = TimeInfinity) a saturated bound must complete as
// an explicit Unbounded verdict — never an error, never a wrapped
// finite number — and the engine and reference paths must agree
// bit-identically on the whole Result.
func TestSaturatedBoundDegradesToUnbounded(t *testing.T) {
	fs := colossusSet(t)
	opt := Options{Horizon: model.TimeInfinity}
	res, err := Analyze(fs, opt)
	if err != nil {
		t.Fatalf("saturation must degrade to a verdict, got error: %v", err)
	}
	if res.Bounds[0] != model.TimeInfinity || !res.Unbounded(0) {
		t.Fatalf("bound = %d, want the explicit Unbounded verdict %d",
			res.Bounds[0], model.TimeInfinity)
	}
	if !model.IsUnbounded(res.Jitters[0]) {
		t.Errorf("jitter = %d, want unbounded alongside the bound", res.Jitters[0])
	}
	if len(res.Details[0].Interference) != 0 {
		t.Errorf("Unbounded verdict carries an interference breakdown")
	}
	ref, err := referenceAnalyze(fs, opt)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("engine and reference disagree on the saturated set:\nengine    %+v\nreference %+v", res, ref)
	}
}

// TestHorizonExceededIsUnstable: the same stable-but-huge set under the
// default horizon is cut off by the divergence guard as a typed
// ErrUnstable, with identical error strings on both paths.
func TestHorizonExceededIsUnstable(t *testing.T) {
	fs := colossusSet(t)
	_, engErr := Analyze(fs, Options{})
	if !errors.Is(engErr, model.ErrUnstable) {
		t.Fatalf("engine err = %v, want ErrUnstable", engErr)
	}
	_, refErr := referenceAnalyze(fs, Options{})
	if !errors.Is(refErr, model.ErrUnstable) {
		t.Fatalf("reference err = %v, want ErrUnstable", refErr)
	}
	if engErr.Error() != refErr.Error() {
		t.Errorf("error-string parity broken:\nengine    %q\nreference %q", engErr, refErr)
	}
}

// TestOverloadOverflowsAtInfiniteHorizon: utilization 2 with the
// divergence guard disabled — the busy-period fixpoint doubles until it
// saturates, which must surface as ErrOverflow (not wrap, not loop
// forever), identically on both paths.
func TestOverloadOverflowsAtInfiniteHorizon(t *testing.T) {
	fs := overloadSet(t)
	opt := Options{Horizon: model.TimeInfinity}
	_, engErr := Analyze(fs, opt)
	if !errors.Is(engErr, model.ErrOverflow) {
		t.Fatalf("engine err = %v, want ErrOverflow", engErr)
	}
	_, refErr := referenceAnalyze(fs, opt)
	if !errors.Is(refErr, model.ErrOverflow) {
		t.Fatalf("reference err = %v, want ErrOverflow", refErr)
	}
	if engErr.Error() != refErr.Error() {
		t.Errorf("error-string parity broken:\nengine    %q\nreference %q", engErr, refErr)
	}
	// At the default horizon the same set is the classical ErrUnstable.
	if _, err := Analyze(fs, Options{}); !errors.Is(err, model.ErrUnstable) {
		t.Errorf("default horizon err = %v, want ErrUnstable", err)
	}
}

// countdownCtx cancels itself after a fixed number of Err() polls —
// a deterministic way to cancel mid-fixpoint, at every possible
// cancellation point in turn.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestCanceledMidFixpoint drives cancellation through every poll point
// of the first several sweeps, serial and parallel. Each canceled run
// must surface ErrCanceled, leave no goroutines behind, and leave the
// Analyzer reusable: the very next uncanceled call must succeed with
// the exact uncanceled result (a canceled Smax table must not be
// latched).
func TestCanceledMidFixpoint(t *testing.T) {
	lowerFanoutFloor(t)
	fs := model.PaperExample()
	want, err := Analyze(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for _, par := range []int{1, 4} {
		for budget := 0; budget < 8; budget++ {
			ctx := &countdownCtx{Context: context.Background(), remaining: budget}
			a, err := NewAnalyzer(fs, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			_, err = a.AnalyzeContext(ctx)
			if !errors.Is(err, model.ErrCanceled) {
				t.Fatalf("par=%d budget=%d: err = %v, want ErrCanceled", par, budget, err)
			}
			res, err := a.AnalyzeContext(context.Background())
			if err != nil {
				t.Fatalf("par=%d budget=%d: analyzer poisoned after cancellation: %v", par, budget, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("par=%d budget=%d: post-cancellation result differs from the clean run", par, budget)
			}
		}
	}

	// Goroutine-leak assertion: all worker goroutines must be joined.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak: %d before, %d after canceled analyses", before, n)
	}
}

// TestCanceledBeforeStart: an already-canceled context aborts within
// the first sweep, through every public entry point.
func TestCanceledBeforeStart(t *testing.T) {
	fs := model.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, fs, Options{}); !errors.Is(err, model.ErrCanceled) {
		t.Errorf("AnalyzeContext: err = %v, want ErrCanceled", err)
	}
	a, err := NewAnalyzer(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.BoundsContext(ctx); !errors.Is(err, model.ErrCanceled) {
		t.Errorf("BoundsContext: err = %v, want ErrCanceled", err)
	}
	if _, err := a.AnalyzeFlowContext(ctx, 0); !errors.Is(err, model.ErrCanceled) {
		t.Errorf("AnalyzeFlowContext: err = %v, want ErrCanceled", err)
	}
}

// TestWorkerPanicContainment: a panic inside a bound evaluation — in a
// serial sweep, a parallel worker, or the reference path — must come
// back as a typed ErrInternal carrying the panic payload, with
// identical error strings on the engine and reference paths, and must
// not crash the process.
func TestWorkerPanicContainment(t *testing.T) {
	lowerFanoutFloor(t)
	fs := model.PaperExample()
	// Panic on PREFIX views so both the engine sweep and the reference
	// computeSmax sweep hit them: flows 2 and 3 (tau3, tau4) one node
	// short of their full paths. Both fail in the first sweep, so a
	// parallel sweep must report the first in slot order, as the
	// reference does.
	testPanicHook = func(flow, l int) {
		if (flow == 2 || flow == 3) && l == len(fs.Flows[flow].Path)-1 {
			panic("boom")
		}
	}
	defer func() { testPanicHook = nil }()

	var engErr error
	for _, par := range []int{1, 3} {
		_, err := Analyze(fs, Options{Parallelism: par})
		if !errors.Is(err, model.ErrInternal) {
			t.Fatalf("par=%d: err = %v, want ErrInternal", par, err)
		}
		if !strings.Contains(err.Error(), "internal panic") || !strings.Contains(err.Error(), "boom") {
			t.Errorf("par=%d: panic payload lost: %v", par, err)
		}
		engErr = err
	}
	_, refErr := referenceAnalyze(fs, Options{})
	if !errors.Is(refErr, model.ErrInternal) {
		t.Fatalf("reference err = %v, want ErrInternal", refErr)
	}
	if engErr.Error() != refErr.Error() {
		t.Errorf("error-string parity broken:\nengine    %q\nreference %q", engErr, refErr)
	}

	// After clearing the hook the same flow set analyses cleanly — the
	// panic left no shared state behind.
	testPanicHook = nil
	if _, err := Analyze(fs, Options{}); err != nil {
		t.Fatalf("analysis after contained panic: %v", err)
	}
}

// bigCount is the (1+⌊win/period⌋)⁺ operator in arbitrary precision.
// big.Int.Div is Euclidean division, which coincides with floor
// division for the positive periods the model guarantees.
func bigCount(win *big.Int, period model.Time) *big.Int {
	q := new(big.Int).Div(win, big.NewInt(int64(period)))
	q.Add(q, big.NewInt(1))
	if q.Sign() < 0 {
		q.SetInt64(0)
	}
	return q
}

// bigBound recomputes the Property-2 maximum of a guard-cleared bound
// context in arbitrary precision: same critical instants, but every
// W(t) and r(t) evaluated over big.Int. If the int64 scan wrapped
// anywhere, this oracle diverges from it.
func bigBound(c *boundCtx) *big.Int {
	var best *big.Int
	for _, ti := range c.criticalInstants() {
		tb := big.NewInt(int64(ti))
		w := big.NewInt(int64(c.fixed))
		win := new(big.Int).Add(tb, big.NewInt(int64(c.jitter)))
		w.Add(w, new(big.Int).Mul(bigCount(win, c.period), big.NewInt(int64(c.cslow))))
		for _, in := range c.inter {
			win := new(big.Int).Add(tb, big.NewInt(int64(in.a)))
			w.Add(w, new(big.Int).Mul(
				bigCount(win, c.fs.Flows[in.j].Period), big.NewInt(int64(in.rel.CSlowJI))))
		}
		r := w.Add(w, big.NewInt(int64(c.clast)))
		r.Sub(r, tb)
		if best == nil || r.Cmp(best) > 0 {
			best = r
		}
	}
	return best
}

// FuzzEngineOracle is the differential fuzz oracle of the hardened
// core: over randomized flow sets, every FINITE engine bound must equal
// an arbitrary-precision recomputation of the Property-2 maximum —
// proving the guard-cleared int64 scan never wraps — and every failure
// must be a typed taxonomy error. Unbounded verdicts (TimeInfinity) are
// always acceptable: they are the saturation degradation path.
func FuzzEngineOracle(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomLineParams{
			Nodes:          3 + rng.Intn(5),
			Flows:          2 + rng.Intn(6),
			MaxUtilization: 0.4 + 0.4*rng.Float64(),
			CostLo:         1,
			CostHi:         model.Time(1 + rng.Intn(6)),
			JitterHi:       model.Time(rng.Intn(9)),
			AllowReverse:   seed%2 == 0,
		}
		fs, err := workload.RandomLine(rng, p)
		if err != nil {
			t.Skip("seed admitted no flows")
		}
		opt := Options{Horizon: model.TimeInfinity}
		res, err := Analyze(fs, opt)
		if err != nil {
			if !errors.Is(err, model.ErrInvalidConfig) &&
				!errors.Is(err, model.ErrUnstable) &&
				!errors.Is(err, model.ErrOverflow) {
				t.Fatalf("untyped analysis error: %v", err)
			}
			return
		}
		smax, _, _, err := computeSmax(fs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs.Flows {
			if model.IsUnbounded(res.Bounds[i]) {
				continue // explicit Unbounded verdict: always acceptable
			}
			c, err := newBoundCtx(fs, opt, fullView(fs, i), smax)
			if err != nil {
				t.Fatal(err)
			}
			want := bigBound(c)
			if !want.IsInt64() || model.Time(want.Int64()) != res.Bounds[i] {
				t.Errorf("flow %d: engine bound %d ≠ big.Int oracle %s",
					i, res.Bounds[i], want)
			}
		}
	})
}
