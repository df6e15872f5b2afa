package trajectory

import (
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/workload"
)

// fuzzedSets draws randomized line-network flow sets spanning forward
// and reversed segments, jitter, and varying density — the differential
// corpus for the engine-vs-reference tests.
func fuzzedSets(t *testing.T, trials int) []*model.FlowSet {
	t.Helper()
	var sets []*model.FlowSet
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomLineParams{
			Nodes:          3 + rng.Intn(5),
			Flows:          2 + rng.Intn(8),
			MaxUtilization: 0.4 + 0.4*rng.Float64(),
			CostLo:         1,
			CostHi:         model.Time(1 + rng.Intn(6)),
			JitterHi:       model.Time(rng.Intn(9)),
			AllowReverse:   seed%2 == 0,
		}
		fs, err := workload.RandomLine(rng, p)
		if err != nil {
			continue // target admitted no flows at this seed
		}
		sets = append(sets, fs)
	}
	if len(sets) < trials/2 {
		t.Fatalf("fuzz corpus too small: %d sets", len(sets))
	}
	return sets
}

// withBlocking returns a copy of fs whose flow i carries Blocking
// rows[i] (a nil row carries none).
func withBlocking(t testing.TB, fs *model.FlowSet, rows [][]model.Time) *model.FlowSet {
	t.Helper()
	flows := make([]*model.Flow, fs.N())
	for i, f := range fs.Flows {
		flows[i] = f.Clone()
		flows[i].Blocking = rows[i]
	}
	out, err := model.NewFlowSet(fs.Net, flows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cyclicBlocking is the deterministic Property-3 pattern the
// differential tests charge: (i+k) mod 3 at the k-th node of flow i.
func cyclicBlocking(fs *model.FlowSet) [][]model.Time {
	rows := make([][]model.Time, fs.N())
	for i, f := range fs.Flows {
		rows[i] = make([]model.Time, len(f.Path))
		for k := range rows[i] {
			rows[i][k] = model.Time((i + k) % 3)
		}
	}
	return rows
}

// engineCase is one differential input: a flow set and the options to
// analyse it under.
type engineCase struct {
	fs  *model.FlowSet
	opt Options
}

// engineOptionMatrix enumerates the settings the differential tests
// cover: serial and parallel sweeps, and Property 3's non-preemption
// penalty (the set with cyclicBlocking).
func engineOptionMatrix(t testing.TB, fs *model.FlowSet) []engineCase {
	blocked := withBlocking(t, fs, cyclicBlocking(fs))
	return []engineCase{
		{fs, Options{}},
		{fs, Options{Parallelism: 3}},
		{blocked, Options{}},
	}
}

// TestEngineMatchesReferenceFuzzed is the tentpole's correctness bar:
// the incremental Analyzer must return bit-identical Results to the
// straight-line reference implementation for every fuzzed flow set at
// every Options setting.
func TestEngineMatchesReferenceFuzzed(t *testing.T) {
	lowerFanoutFloor(t)
	for si, set := range fuzzedSets(t, 24) {
		for oi, c := range engineOptionMatrix(t, set) {
			fs, opt := c.fs, c.opt
			want, wantErr := referenceAnalyze(fs, opt)
			got, gotErr := Analyze(fs, opt)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("set %d opt %d: reference err %v, engine err %v", si, oi, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("set %d opt %d: reference err %q, engine err %q", si, oi, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("set %d opt %d (%+v): engine Result diverges\nreference: %+v\nengine:    %+v",
					si, oi, opt, want, got)
			}
		}
	}
}

// TestEngineMatchesReferencePaperExample pins the differential on the
// paper's Section-5 example, where the golden bounds are known.
func TestEngineMatchesReferencePaperExample(t *testing.T) {
	lowerFanoutFloor(t)
	for oi, c := range engineOptionMatrix(t, model.PaperExample()) {
		fs, opt := c.fs, c.opt
		want, err := referenceAnalyze(fs, opt)
		if err != nil {
			t.Fatalf("opt %d: reference: %v", oi, err)
		}
		got, err := Analyze(fs, opt)
		if err != nil {
			t.Fatalf("opt %d: engine: %v", oi, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opt %d (%+v): engine Result diverges", oi, opt)
		}
	}
}

// TestEngineAnalyzeFlowMatchesReference checks the single-flow entry
// point against its reference, including the out-of-range error.
func TestEngineAnalyzeFlowMatchesReference(t *testing.T) {
	for si, fs := range fuzzedSets(t, 8) {
		for i := 0; i < fs.N(); i++ {
			want, wantErr := referenceAnalyzeFlow(fs, Options{}, i)
			got, gotErr := AnalyzeFlow(fs, Options{}, i)
			if (wantErr == nil) != (gotErr == nil) || want != got {
				t.Fatalf("set %d flow %d: reference (%d,%v), engine (%d,%v)",
					si, i, want, wantErr, got, gotErr)
			}
		}
	}
	fs := model.PaperExample()
	if _, err := AnalyzeFlow(fs, Options{}, -1); err == nil {
		t.Error("negative index accepted")
	}
}

// longTandem builds four flows over a line of hops nodes: two
// same-direction full-length flows, one reversed, and one jittered
// flow over the second half — paths past the 64-hop word of the view
// builder's read-set dedup.
func longTandem(t *testing.T, hops int) *model.FlowSet {
	t.Helper()
	line := func(from, to int) []model.NodeID {
		var p []model.NodeID
		for h := from; ; {
			p = append(p, model.NodeID(h))
			if h == to {
				return p
			}
			if from < to {
				h++
			} else {
				h--
			}
		}
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("full-a", 40, 0, 0, 2, line(1, hops)...),
		model.UniformFlow("full-b", 50, 0, 0, 3, line(1, hops)...),
		model.UniformFlow("reverse", 60, 0, 0, 1, line(hops, 1)...),
		model.UniformFlow("half", 45, 4, 0, 2, line(hops/2, hops)...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestEngineMatchesReferenceLongPaths extends the differential past 64
// hops, where the view builder's per-view read dedup spans several
// words.
func TestEngineMatchesReferenceLongPaths(t *testing.T) {
	for _, hops := range []int{70, 130} {
		fs := longTandem(t, hops)
		want, wantErr := referenceAnalyze(fs, Options{})
		got, gotErr := Analyze(fs, Options{})
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%d hops: reference err %v, engine err %v", hops, wantErr, gotErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d hops: engine Result diverges from the reference\nreference bounds %v\nengine bounds    %v",
				hops, want.Bounds, got.Bounds)
		}
	}
}

// TestEngineErrorParity: failure modes must surface identically —
// overload divergence, unknown mode and malformed non-preemption
// vectors.
//
// In the later-view sets the overload sits at node 3, which only the
// longer views of "a" reach: the first request builds all of a's
// views and the failing ones stay unbuilt. In "later" the error must
// come back when the evaluation order reaches a's first failing prefix
// view; in "fullOnly" only a's full view fails, so the prefix fixed
// point must report b's error, not a's.
func TestEngineErrorParity(t *testing.T) {
	lowerFanoutFloor(t)
	over := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("f1", 5, 0, 0, 3, 1, 2),
		model.UniformFlow("f2", 5, 0, 0, 3, 1, 2),
	})
	later := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("a", 10, 0, 0, 2, 1, 2, 3, 4),
		model.UniformFlow("b", 10, 0, 0, 9, 3, 5),
	})
	fullOnly := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("a", 10, 0, 0, 2, 1, 2, 3),
		model.UniformFlow("b", 10, 0, 0, 9, 3, 5),
	})
	// In "middle" flow m fails at its third prefix view while flows
	// after it build cleanly: a parallel prebuild has built their views
	// ahead of the serial loop, which still stops at m's error.
	middle := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("x", 60, 0, 0, 1, 0, 1),
		model.UniformFlow("m", 10, 0, 0, 2, 1, 2, 3, 4),
		model.UniformFlow("y", 60, 0, 0, 1, 5, 6, 7),
		model.UniformFlow("o", 10, 0, 0, 9, 3, 5),
		model.UniformFlow("z", 60, 0, 0, 1, 6, 7, 8),
	})
	ok := model.PaperExample()
	cases := []struct {
		name string
		fs   *model.FlowSet
		opt  Options
	}{
		{"overload prefix", over, Options{Smax: SmaxPrefixFixpoint}},
		{"later view prefix", later, Options{Smax: SmaxPrefixFixpoint}},
		{"later view traced", later, Options{Tracer: &obs.Collector{}}},
		{"full view only prefix", fullOnly, Options{Smax: SmaxPrefixFixpoint}},
		{"prebuilt later view prefix workers 4", later, Options{Smax: SmaxPrefixFixpoint, Parallelism: 4}},
		{"prebuilt later view traced workers 4", later, Options{Tracer: &obs.Collector{}, Parallelism: 4}},
		{"prebuilt full view only workers 4", fullOnly, Options{Smax: SmaxPrefixFixpoint, Parallelism: 4}},
		{"prebuilt middle prefix workers 4", middle, Options{Smax: SmaxPrefixFixpoint, Parallelism: 4}},
		{"unknown mode", ok, Options{Smax: SmaxMode(99)}},
	}
	for _, c := range cases {
		_, wantErr := referenceAnalyze(c.fs, c.opt)
		_, gotErr := Analyze(c.fs, c.opt)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%s: expected errors, reference %v, engine %v", c.name, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("%s: reference err %q, engine err %q", c.name, wantErr, gotErr)
		}
	}
}

// TestAnalyzerReuse: repeated queries against one Analyzer must be
// idempotent and mutually consistent — the amortized entry points
// return exactly what a fresh one-shot analysis returns.
func TestAnalyzerReuse(t *testing.T) {
	for _, fs := range fuzzedSets(t, 6) {
		a, err := NewAnalyzer(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, err := a.Analyze()
		if err != nil {
			// Some fuzzed sets diverge; the error must at least be
			// stable.
			if _, err2 := a.Analyze(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("unstable error: %v then %v", err, err2)
			}
			continue
		}
		second, err := a.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("repeated Analyze() diverged")
		}
		bounds, err := a.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bounds, first.Bounds) {
			t.Fatalf("Bounds() %v != Analyze().Bounds %v", bounds, first.Bounds)
		}
		for i := range fs.Flows {
			r, err := a.AnalyzeFlow(i)
			if err != nil {
				t.Fatal(err)
			}
			if r != first.Bounds[i] {
				t.Fatalf("AnalyzeFlow(%d) = %d, Analyze %d", i, r, first.Bounds[i])
			}
		}
		if _, err := a.AnalyzeFlow(fs.N()); err == nil {
			t.Error("out-of-range index accepted")
		}
	}
}

// TestPrefixRelationMatchesRelateToPath: the allocation-free
// FlowSet.PrefixRelation must agree with the general RelateToPath on
// every (flow, prefix length, interferer) triple, in every field the
// analysis consumes (Shared is intentionally omitted).
func TestPrefixRelationMatchesRelateToPath(t *testing.T) {
	sets := fuzzedSets(t, 12)
	sets = append(sets, model.PaperExample())
	for si, fs := range sets {
		for i, f := range fs.Flows {
			for plen := 1; plen <= len(f.Path); plen++ {
				for j := range fs.Flows {
					if j == i {
						continue
					}
					want := model.RelateToPath(f.Path[:plen], fs.Flows[j])
					got := fs.PrefixRelation(i, plen, j)
					want.Shared = nil
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("set %d (i=%d plen=%d j=%d): RelateToPath %+v, PrefixRelation %+v",
							si, i, plen, j, want, got)
					}
				}
			}
		}
	}
}
