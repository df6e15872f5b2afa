package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trajan/internal/model"
)

// fakeSource replays canned specs; used to probe the engine's runtime
// enforcement of the ScenarioSource contract.
type fakeSource struct {
	nflows int
	specs  [][]PacketSpec
	pos    []int
}

func (f *fakeSource) Flows() int            { return f.nflows }
func (f *fakeSource) TieBreak(flow int) int { return flow }

func (f *fakeSource) Next(flow int, s *PacketSpec) bool {
	if f.pos[flow] >= len(f.specs[flow]) {
		return false
	}
	*s = f.specs[flow][f.pos[flow]]
	f.pos[flow]++
	return true
}

func singleHopFlowSet(tb testing.TB, n int) *model.FlowSet {
	tb.Helper()
	flows := make([]*model.Flow, n)
	for i := range flows {
		flows[i] = model.UniformFlow(fmt.Sprintf("s%d", i), 10, 0, 0, 2, 1)
	}
	return model.MustNewFlowSet(model.UnitDelayNetwork(), flows)
}

// TestScenarioSourceOrdering: the adapter must deliver a flow's packets
// in nondecreasing release order even when jitter inverts them, and
// deliver every packet exactly once.
func TestScenarioSourceOrdering(t *testing.T) {
	sc := &Scenario{
		Gen: [][]model.Time{{0, 5, 10, 15}},
		Jit: [][]model.Time{{20, 3, 0, 6}}, // releases 20, 8, 10, 21
	}
	src := sc.Source()
	var last model.Time = -1 << 62
	seen := map[int]bool{}
	var spec PacketSpec
	for src.Next(0, &spec) {
		if spec.Released < last {
			t.Errorf("release %d after %d", spec.Released, last)
		}
		last = spec.Released
		if seen[spec.Seq] {
			t.Errorf("seq %d emitted twice", spec.Seq)
		}
		seen[spec.Seq] = true
		if spec.Released != sc.Gen[0][spec.Seq]+sc.Jit[0][spec.Seq] {
			t.Errorf("seq %d released at %d, want gen+jit=%d", spec.Seq, spec.Released, sc.Gen[0][spec.Seq]+sc.Jit[0][spec.Seq])
		}
	}
	if len(seen) != 4 {
		t.Errorf("emitted %d packets, want 4", len(seen))
	}
}

// copySpec deep-copies a spec (sources may reuse Proc/Link buffers).
func copySpec(s *PacketSpec) PacketSpec {
	c := *s
	c.Proc = append([]model.Time(nil), s.Proc...)
	c.Link = append([]model.Time(nil), s.Link...)
	return c
}

// TestStreamSourceInterleavingIndependence: a flow's packet stream must
// not depend on how Next calls interleave across flows — that is what
// makes parallel replications and the seed merge heap deterministic.
func TestStreamSourceInterleavingIndependence(t *testing.T) {
	fs := model.PaperExample()
	const n = 25
	seq := NewSporadicSource(fs, 42, n, 7, 2)
	rr := NewSporadicSource(fs, 42, n, 7, 2)

	got := make([][]PacketSpec, fs.N())
	var spec PacketSpec
	for f := 0; f < fs.N(); f++ { // drain flow-by-flow
		for seq.Next(f, &spec) {
			got[f] = append(got[f], copySpec(&spec))
		}
	}
	rrGot := make([][]PacketSpec, fs.N())
	for done := false; !done; { // drain round-robin
		done = true
		for f := 0; f < fs.N(); f++ {
			if rr.Next(f, &spec) {
				rrGot[f] = append(rrGot[f], copySpec(&spec))
				done = false
			}
		}
	}
	for f := range got {
		if len(got[f]) != n || len(rrGot[f]) != n {
			t.Fatalf("flow %d emitted %d/%d packets, want %d", f, len(got[f]), len(rrGot[f]), n)
		}
		for k := range got[f] {
			a, b := got[f][k], rrGot[f][k]
			if a.Seq != b.Seq || a.Generated != b.Generated || a.Released != b.Released ||
				!timesEqual(a.Proc, b.Proc) || !timesEqual(a.Link, b.Link) {
				t.Fatalf("flow %d packet %d differs across interleavings:\nseq  %+v\nrr   %+v", f, k, a, b)
			}
		}
	}
}

// TestPooledRandMatchesFresh: a generator taken from rngPool after
// another stream used it, and re-seeded, draws exactly what a fresh
// rand.NewSource with that seed draws.
func TestPooledRandMatchesFresh(t *testing.T) {
	used := rngPool.Get().(*rand.Rand)
	used.Seed(7)
	for k := 0; k < 777; k++ {
		used.Int63n(1 + int64(k))
	}
	rngPool.Put(used)
	for _, seed := range []int64{0, 1, flowSeed(42, 3), -5} {
		pooled := rngPool.Get().(*rand.Rand)
		pooled.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for k := 0; k < 10000; k++ {
			if g, w := pooled.Int63(), fresh.Int63(); g != w {
				t.Fatalf("seed %d draw %d: pooled %d, fresh %d", seed, k, g, w)
			}
		}
		rngPool.Put(pooled)
	}
}

func timesEqual(a, b []model.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSporadicSourceContract: every sample the sporadic generator emits
// stays within the flow set's declared envelope.
func TestSporadicSourceContract(t *testing.T) {
	fs := model.PaperExample()
	const (
		n         = 200
		slack     = 9
		procSlack = 2
	)
	src := NewSporadicSource(fs, 3, n, slack, procSlack)
	var spec PacketSpec
	for f, flow := range fs.Flows {
		var prevGen, prevRel model.Time
		for k := 0; src.Next(f, &spec); k++ {
			if k > 0 {
				gap := spec.Generated - prevGen
				if gap < flow.Period || gap > flow.Period+slack {
					t.Fatalf("flow %d gap %d outside [%d,%d]", f, gap, flow.Period, flow.Period+slack)
				}
				if spec.Released < prevRel {
					t.Fatalf("flow %d release %d after %d", f, spec.Released, prevRel)
				}
			}
			if j := spec.Released - spec.Generated; j < 0 || j > flow.Jitter {
				t.Fatalf("flow %d jitter %d outside [0,%d]", f, j, flow.Jitter)
			}
			for h, c := range spec.Proc {
				lo := flow.Cost[h] - procSlack
				if lo < 1 {
					lo = 1
				}
				if c < lo || c > flow.Cost[h] {
					t.Fatalf("flow %d hop %d proc %d outside [%d,%d]", f, h, c, lo, flow.Cost[h])
				}
			}
			for h, d := range spec.Link {
				if d < fs.Net.Lmin || d > fs.Net.Lmax {
					t.Fatalf("flow %d hop %d link %d outside [%d,%d]", f, h, d, fs.Net.Lmin, fs.Net.Lmax)
				}
			}
			prevGen, prevRel = spec.Generated, spec.Released
		}
	}
}

// TestSourceContractEnforcement: the engine aborts on streams that
// break the documented contract instead of corrupting its calendar.
func TestSourceContractEnforcement(t *testing.T) {
	cases := []struct {
		name  string
		specs []PacketSpec
		want  string
	}{
		{"decreasing-release",
			[]PacketSpec{{Seq: 0, Released: 10}, {Seq: 1, Released: 5}},
			"after releasing"},
		{"proc-arity",
			[]PacketSpec{{Seq: 0, Proc: []model.Time{1, 2}}},
			"proc times"},
		{"proc-range",
			[]PacketSpec{{Seq: 0, Proc: []model.Time{0}}},
			"outside"},
		{"link-arity",
			[]PacketSpec{{Seq: 0, Link: []model.Time{1}}},
			"link delays"},
	}
	fs := singleHopFlowSet(t, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &fakeSource{nflows: 1, specs: [][]PacketSpec{tc.specs}, pos: []int{0}}
			_, err := NewEngine(fs, Config{}).RunSource(t.Context(), src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRunSourceFlowCountMismatch: a source over the wrong flow set is
// rejected up front.
func TestRunSourceFlowCountMismatch(t *testing.T) {
	fs := singleHopFlowSet(t, 2)
	src := &fakeSource{nflows: 3, specs: make([][]PacketSpec, 3), pos: make([]int, 3)}
	if _, err := NewEngine(fs, Config{}).RunSource(t.Context(), src); err == nil {
		t.Error("engine accepted a source with a mismatched flow count")
	}
}
