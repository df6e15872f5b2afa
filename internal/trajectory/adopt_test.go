package trajectory

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// adoptPair drives two analyzers over the same set through the same
// calls: kept runs its batches with Keep, twin without, so every
// mutation of kept that matches a candidate adopts that candidate's
// fork while twin recomputes it. Both trace into their own Collector.
type adoptPair struct {
	t              *testing.T
	tag            string
	kept, twin     *Analyzer
	keptEv, twinEv *obs.Collector
}

func newAdoptPair(t *testing.T, tag string, fs *model.FlowSet, par int) *adoptPair {
	p := &adoptPair{t: t, tag: tag, keptEv: &obs.Collector{}, twinEv: &obs.Collector{}}
	var err error
	if p.kept, err = NewAnalyzer(fs, Options{Parallelism: par, Tracer: p.keptEv}); err != nil {
		t.Fatal(err)
	}
	if p.twin, err = NewAnalyzer(fs, Options{Parallelism: par, Tracer: p.twinEv}); err != nil {
		t.Fatal(err)
	}
	return p
}

// batch runs cands on both analyzers and checks their outcomes agree.
func (p *adoptPair) batch(cands []Candidate) []WhatIfOutcome {
	p.t.Helper()
	keep := append([]Candidate(nil), cands...)
	for k := range keep {
		keep[k].Keep = true
	}
	got := p.kept.WhatIf(keep)
	want := p.twin.WhatIf(cands)
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s: Keep batch outcomes %v, plain batch %v", p.tag, got, want)
	}
	if len(p.twin.kept) != 0 {
		p.t.Fatalf("%s: a batch without Keep kept %d forks", p.tag, len(p.twin.kept))
	}
	ok := 0
	for _, o := range got {
		if o.Err == nil {
			ok++
		}
	}
	if len(p.kept.kept) != ok {
		p.t.Fatalf("%s: kept %d forks of %d successful Keep candidates", p.tag, len(p.kept.kept), ok)
	}
	return got
}

// step applies one mutation to both analyzers, then Bounds, and checks
// the two agree on the error, the bounds and the events emitted from
// the mutation on. adopted says whether kept must install a kept fork.
func (p *adoptPair) step(name string, adopted bool, mut func(a *Analyzer) error) {
	p.t.Helper()
	tag := p.tag + " " + name
	var candFS []*model.FlowSet
	for _, k := range p.kept.kept {
		candFS = append(candFS, k.state.fs)
	}
	p.keptEv.Reset()
	p.twinEv.Reset()
	kerr, terr := mut(p.kept), mut(p.twin)
	if fmt.Sprint(kerr) != fmt.Sprint(terr) {
		p.t.Fatalf("%s: mutation err %v, twin %v", tag, kerr, terr)
	}
	if len(p.kept.kept) != 0 {
		p.t.Fatalf("%s: %d kept forks survived a mutation", tag, len(p.kept.kept))
	}
	isFork := false
	for _, fs := range candFS {
		isFork = isFork || p.kept.fs == fs
	}
	if isFork != adopted {
		p.t.Fatalf("%s: adopted a fork = %v, want %v", tag, isFork, adopted)
	}
	kb, kerr := p.kept.Bounds()
	tb, terr := p.twin.Bounds()
	if fmt.Sprint(kerr) != fmt.Sprint(terr) || !reflect.DeepEqual(kb, tb) {
		p.t.Fatalf("%s: bounds %v (%v), twin %v (%v)", tag, kb, kerr, tb, terr)
	}
	if ke, te := eventsNoSeq(p.keptEv), eventsNoSeq(p.twinEv); !reflect.DeepEqual(ke, te) {
		p.t.Fatalf("%s: events diverge\nkept: %+v\ntwin: %+v", tag, ke, te)
	}
	if kerr == nil {
		requireWarmMatchesCold(p.t, tag, p.kept, p.kept.opt)
		requireWarmMatchesCold(p.t, tag+" twin", p.twin, p.twin.opt)
	}
}

func eventsNoSeq(c *obs.Collector) []obs.Event {
	ev := c.Events()
	for i := range ev {
		ev[i].Seq = 0
	}
	return ev
}

// TestWhatIfKeepAdoptionMatchesTwin: a Keep batch followed by the
// matching AddFlow, UpdateFlow or RemoveFlow and Bounds equals an
// analyzer that ran the same batch without Keep — bounds, errors and
// the traced event sequence — and so does everything after it: the
// O(1) undo of an adopted add, a mutation no candidate matches, and the
// next batch.
func TestWhatIfKeepAdoptionMatchesTwin(t *testing.T) {
	lowerFanoutFloor(t)
	for si, base := range fuzzedSets(t, 8) {
		for _, par := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(700 + si)))
			fs := withRandomBlocking(t, rng, base)
			p := newAdoptPair(t, fmt.Sprintf("set %d par %d", si, par), fs, par)
			for round := 0; round < 6; round++ {
				n := p.kept.FlowSet().N()
				name := fmt.Sprintf("r%d", round)
				cands := []Candidate{
					{Add: randomBlocking(rng, candidateFlow(rng, base, name+"-a"))},
					{Add: randomBlocking(rng, candidateFlow(rng, base, name+"-b"))},
					{Update: randomBlocking(rng, candidateFlow(rng, base, name+"-u")), Index: rng.Intn(n)},
				}
				if n > 1 {
					cands = append(cands, Candidate{Remove: true, Index: rng.Intn(n)})
				}
				out := p.batch(cands)
				k := (round + si) % len(cands)
				c := cands[k]
				switch {
				case c.Add != nil:
					p.step(name+" add", out[k].Err == nil, func(a *Analyzer) error { _, err := a.AddFlow(c.Add); return err })
					if out[k].Err == nil {
						last := p.kept.FlowSet().N() - 1
						p.step(name+" undo", false, func(a *Analyzer) error { return a.RemoveFlow(last) })
						p.step(name+" readd", false, func(a *Analyzer) error { _, err := a.AddFlow(c.Add); return err })
					}
				case c.Update != nil:
					p.step(name+" update", out[k].Err == nil, func(a *Analyzer) error { return a.UpdateFlow(c.Index, c.Update) })
				default:
					// Removing the flow the last mutation added takes the
					// O(1) undo path before any kept fork.
					undo := p.kept.derive != nil && p.kept.derive.added == c.Index
					p.step(name+" remove", out[k].Err == nil && !undo, func(a *Analyzer) error { return a.RemoveFlow(c.Index) })
				}
				// An adopted update or removal leaves no undo, as the
				// recomputing mutation does: removing the last flow now
				// takes the general path on both.
				if c.Add == nil && p.kept.FlowSet().N() > 1 {
					last := p.kept.FlowSet().N() - 1
					p.step(name+" drop last", false, func(a *Analyzer) error { return a.RemoveFlow(last) })
				}
				// A mutation no candidate matches.
				other := randomBlocking(rng, candidateFlow(rng, base, name+"-x"))
				p.batch(cands[:1])
				p.step(name+" other", false, func(a *Analyzer) error { _, err := a.AddFlow(other); return err })
			}
		}
	}
}

// TestWhatIfKeepDropped: the kept set does not survive an intervening
// mutation or batch, an edit of the caller's flow after the batch does
// not match its fork, and a batch without Keep keeps nothing.
func TestWhatIfKeepDropped(t *testing.T) {
	fs := model.PaperExample()
	newA := func() *Analyzer {
		a, err := NewAnalyzer(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	probe := func() *model.Flow { return model.UniformFlow("probe", 72, 0, 90, 2, 1, 3) }
	requireNotAdopted := func(tag string, a *Analyzer, forks []*model.FlowSet) {
		t.Helper()
		for _, f := range forks {
			if a.fs == f {
				t.Fatalf("%s: adopted a dropped fork", tag)
			}
		}
		requireWarmMatchesCold(t, tag, a, a.opt)
	}
	keptSets := func(a *Analyzer) []*model.FlowSet {
		var out []*model.FlowSet
		for _, k := range a.kept {
			out = append(out, k.state.fs)
		}
		return out
	}

	// An intervening mutation drops the kept set.
	a := newA()
	f := probe()
	a.WhatIf([]Candidate{{Add: f, Keep: true}})
	forks := keptSets(a)
	if len(forks) != 1 {
		t.Fatalf("kept %d forks, want 1", len(forks))
	}
	if err := a.UpdateFlow(0, a.FlowSet().Flows[0]); err != nil {
		t.Fatal(err)
	}
	if len(a.kept) != 0 {
		t.Fatal("kept set survived an unmatched mutation")
	}
	if _, err := a.AddFlow(f); err != nil {
		t.Fatal(err)
	}
	requireNotAdopted("intervening mutation", a, forks)

	// A later batch replaces the kept set.
	a = newA()
	a.WhatIf([]Candidate{{Add: f, Keep: true}})
	forks = keptSets(a)
	a.WhatIf([]Candidate{{Remove: true, Index: 0}})
	if len(a.kept) != 0 {
		t.Fatal("a batch without Keep left the earlier kept set")
	}
	if _, err := a.AddFlow(f); err != nil {
		t.Fatal(err)
	}
	requireNotAdopted("later batch", a, forks)

	// Editing the caller's flow after the batch is no match.
	a = newA()
	f = probe()
	a.WhatIf([]Candidate{{Add: f, Keep: true}, {Update: f, Index: 2, Keep: true}})
	forks = keptSets(a)
	f.Period++
	if _, err := a.AddFlow(f); err != nil {
		t.Fatal(err)
	}
	requireNotAdopted("edited flow", a, forks)
	if got := a.FlowSet().Flows[a.FlowSet().N()-1].Period; got != 73 {
		t.Fatalf("committed period %d, want the edited 73", got)
	}

	// An update of another index is no match either.
	a = newA()
	f = probe()
	a.WhatIf([]Candidate{{Update: f, Index: 2, Keep: true}})
	forks = keptSets(a)
	if err := a.UpdateFlow(3, f); err != nil {
		t.Fatal(err)
	}
	requireNotAdopted("other index", a, forks)

	// A failed candidate keeps nothing.
	a = newA()
	out := a.WhatIf([]Candidate{{Add: fs.Flows[0], Keep: true}})
	if out[0].Err == nil || len(a.kept) != 0 {
		t.Fatalf("duplicate add: err %v, kept %d", out[0].Err, len(a.kept))
	}
}
