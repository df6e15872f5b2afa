package trajectory

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/workload"
)

// closTenant draws flows on a Clos(4,8,4) fabric shaped like the served
// tenant: host, leaf, spine, leaf, host, through one spine pinned per
// leaf pair (two flows of one pair on different spines would violate
// Assumption 1).
type closTenant struct {
	rng              *rand.Rand
	pin              [8][8]int
	n                int
	costLo, costHi   model.Time
	periodLo, period model.Time // periods are drawn from [periodLo, periodLo+period)
}

// newClosTenant returns a tenant with the served workload's contracts:
// costs 1–3, periods 150–300.
func newClosTenant(seed int64) *closTenant {
	c := &closTenant{rng: rand.New(rand.NewSource(seed)), costLo: 1, costHi: 3, periodLo: 150, period: 151}
	for a := range c.pin {
		for b := a + 1; b < len(c.pin); b++ {
			c.pin[a][b] = c.rng.Intn(4)
		}
	}
	return c
}

// flow draws the next flow; names are unique per tenant.
func (c *closTenant) flow() *model.Flow {
	sl := c.rng.Intn(8)
	dl := (sl + 1 + c.rng.Intn(7)) % 8
	cost := c.costLo + model.Time(c.rng.Int63n(int64(c.costHi-c.costLo+1)))
	period := c.periodLo + model.Time(c.rng.Int63n(int64(c.period)))
	f := model.UniformFlow(fmt.Sprintf("t%d", c.n), period, model.Time(c.rng.Intn(3)), 0, cost,
		workload.ClosHost(sl, c.rng.Intn(4)), workload.ClosLeaf(sl),
		workload.ClosSpine(c.pin[min(sl, dl)][max(sl, dl)]),
		workload.ClosLeaf(dl), workload.ClosHost(dl, c.rng.Intn(4)))
	c.n++
	return f
}

// set draws n flows into a flow set.
func (c *closTenant) set(tb testing.TB, n int) *model.FlowSet {
	tb.Helper()
	flows := make([]*model.Flow, n)
	for k := range flows {
		flows[k] = c.flow()
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// addChainOptions are the settings FuzzDeltaAddChain decodes its first
// byte into.
var addChainOptions = []Options{
	{},
	{Parallelism: 3},
}

// addChainPair is an Analyzer that extends, shrinks and patches the
// views a mutation changed and a twin that rebuilds them (testNoExtend),
// driven through the same calls, each tracing into its own Collector.
type addChainPair struct {
	t           *testing.T
	ext, twin   *Analyzer
	extEv, twEv *obs.Collector
}

// run applies call to both analyzers, the twin with extension off, and
// requires equal errors.
func (p *addChainPair) run(tag string, call func(a *Analyzer) error) error {
	p.t.Helper()
	err := call(p.ext)
	testNoExtend = true
	terr := call(p.twin)
	testNoExtend = false
	if fmt.Sprint(err) != fmt.Sprint(terr) {
		p.t.Fatalf("%s: err %v, twin %v", tag, err, terr)
	}
	return err
}

// bounds runs Bounds on both analyzers and requires the bounds, the
// error and the events since the last check to equal the twin's, and
// the bounds, the error and every built view to equal a cold analysis
// of the same set.
func (p *addChainPair) bounds(tag string) {
	p.t.Helper()
	var b, tb []model.Time
	err := p.run(tag+" bounds", func(a *Analyzer) (err error) {
		if a == p.ext {
			b, err = a.Bounds()
		} else {
			tb, err = a.Bounds()
		}
		return err
	})
	if !reflect.DeepEqual(b, tb) {
		p.t.Fatalf("%s: bounds %v, twin %v", tag, b, tb)
	}
	if e, te := eventsNoSeq(p.extEv), eventsNoSeq(p.twEv); !reflect.DeepEqual(e, te) {
		p.t.Fatalf("%s: events diverge\next:  %+v\ntwin: %+v", tag, e, te)
	}
	p.extEv.Reset()
	p.twEv.Reset()

	opt := p.ext.opt
	opt.Tracer = nil
	cold, _ := NewAnalyzer(p.ext.fs, opt)
	cb, cerr := cold.Bounds()
	if fmt.Sprint(err) != fmt.Sprint(cerr) {
		p.t.Fatalf("%s: err %v, cold %v", tag, err, cerr)
	}
	if err == nil && cold.converged == p.ext.converged && !reflect.DeepEqual(b, cb) {
		p.t.Fatalf("%s: bounds %v, cold %v", tag, b, cb)
	}
	for i := range cold.full {
		L := len(p.ext.fs.Flows[i].Path)
		for k := 1; k <= L; k++ {
			v, cv := viewAt(p.ext.full, p.ext.prefix, i, k, L), viewAt(cold.full, cold.prefix, i, k, L)
			if v != nil && cv != nil && !reflect.DeepEqual(v, cv) {
				p.t.Fatalf("%s: flow %d view %d\ngot:  %+v\ncold: %+v", tag, i, k, v, cv)
			}
		}
	}
}

// FuzzDeltaAddChain decodes bytes into mutation steps on a seeded Clos
// tenant whose flows carry random Blocking and checks the re-derived
// views differentially — extended after an add, shrunk after a release,
// patched after a period renegotiation: after every Bounds, the
// Analyzer equals a twin that rebuilds the views each mutation changed
// (bounds, errors, traced events) and a cold analysis (bounds,
// Unbounded verdicts, errors, every built view, the kept and carried
// ones included).
//
// Layout: data[0] picks the options, data[1] the base size, data[2] the
// contract regime (served, near-overflow, overload-prone), data[3] the
// seed; every later byte is one step:
//
//	0 AddFlow, then Bounds      5 WhatIf Keep batch, then its AddFlow
//	1 AddFlow without Bounds    6 RemoveFlow of flow 0 (the oldest)
//	2 RemoveFlow of the last    7 period of a random flow rises
//	3 RemoveFlow of a random    8 period of a random flow falls
//	4 UpdateFlow of a random    9 deadline of a random flow changes
//
// Only the state the last mutation replaced is a source of views, and
// only an add's is an undo. Step 1 leaves that state with views missing,
// so a second add in a row rebuilds the views the first one dropped.
func FuzzDeltaAddChain(f *testing.F) {
	lowerFanoutFloor(f)
	f.Add([]byte{0, 8, 0, 1, 0, 0, 2, 0, 1, 0, 2, 2, 5, 0, 4, 0})
	f.Add([]byte{1, 12, 0, 2, 1, 1, 0, 2, 0, 5, 2, 3, 0, 1, 0})
	f.Add([]byte{2, 5, 0, 3, 0, 1, 1, 0, 2, 2, 0, 4, 1, 0})
	f.Add([]byte{3, 9, 0, 4, 5, 0, 2, 1, 0, 3, 0, 0})
	f.Add([]byte{4, 7, 0, 5, 0, 0, 2, 4, 0, 1, 0})
	// Near-overflow costs under an infinite horizon (so Unbounded
	// bounds are verdicts): the M-term and Smin folds rail, so
	// the pre-finish saturation flag rides through extensions, and the
	// busy periods of the grown sets end in ErrOverflow.
	f.Add([]byte{4, 0, 1, 10, 0, 0, 0, 2, 0, 0, 2, 0})
	f.Add([]byte{4, 1, 1, 11, 0, 1, 0, 2, 0, 5, 0})
	// Short periods: the base is stable, and the busy periods diverge
	// only after some adds.
	f.Add([]byte{0, 2, 2, 10, 0, 0, 0, 0, 0, 0, 2, 2, 0})
	f.Add([]byte{1, 4, 2, 10, 0, 5, 2, 0, 1, 0, 0})
	// Two removals empty the set; the update step that follows must
	// skip it.
	f.Add([]byte{0, 0, 0, 0, 2, 2, 4})
	// Releases of the oldest flow, which precedes nearly every entry of
	// its neighbours' views, so a same-direction one that is cheaper on
	// a shared node moves their M terms; renegotiations of the period
	// both ways, and of the deadline alone, between them.
	f.Add([]byte{0, 11, 0, 1, 6, 6, 0, 6, 1, 6})
	f.Add([]byte{1, 13, 0, 7, 6, 7, 8, 6, 9, 0, 8, 7})
	f.Add([]byte{0, 9, 0, 12, 8, 8, 7, 9, 6, 3, 8})
	f.Add([]byte{3, 10, 2, 5, 8, 8, 6, 7, 0, 8, 6})
	f.Add([]byte{4, 6, 1, 10, 6, 8, 7, 9, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		opt := addChainOptions[int(data[0])%len(addChainOptions)]
		// A short horizon and iteration cap keep near-divergent busy
		// periods and fixed points, and the t-scans over them, short.
		opt.Horizon, opt.MaxIterations = 1<<12, 64
		ten := newClosTenant(int64(data[3]))
		switch data[2] % 3 {
		case 1:
			const huge = model.Time(1) << 58
			ten.costLo, ten.costHi, ten.periodLo, ten.period = huge, huge+1<<50, 3*huge, 1<<56
			opt.Horizon = model.TimeInfinity
		case 2:
			ten.costLo, ten.costHi, ten.periodLo, ten.period = 2, 4, 12, 9
		}
		draw := func() *model.Flow { return randomBlocking(ten.rng, ten.flow()) }
		flows := make([]*model.Flow, 2+int(data[1])%12)
		for k := range flows {
			flows[k] = draw()
		}
		fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
		if err != nil {
			t.Skip(err)
		}
		p := &addChainPair{t: t, extEv: &obs.Collector{}, twEv: &obs.Collector{}}
		o := opt
		o.Tracer = p.extEv
		p.ext, _ = NewAnalyzer(fs, o)
		o.Tracer = p.twEv
		p.twin, _ = NewAnalyzer(fs, o)
		p.bounds("base")
		steps := data[4:]
		if len(steps) > 24 {
			steps = steps[:24]
		}
		for s, b := range steps {
			tag := fmt.Sprintf("step %d op %d", s, b%10)
			n := p.ext.fs.N()
			switch b % 10 {
			case 0, 1:
				nf := draw()
				p.run(tag, func(a *Analyzer) error { _, err := a.AddFlow(nf); return err })
				if b%6 == 1 {
					continue
				}
			case 2:
				p.run(tag, func(a *Analyzer) error { return a.RemoveFlow(n - 1) })
			case 3:
				if n < 2 {
					continue
				}
				k := ten.rng.Intn(n)
				p.run(tag, func(a *Analyzer) error { return a.RemoveFlow(k) })
			case 4:
				if n == 0 { // every flow was removed: nothing to update
					continue
				}
				k := ten.rng.Intn(n)
				nf := draw()
				nf.Name = p.ext.fs.Flows[k].Name
				p.run(tag, func(a *Analyzer) error { return a.UpdateFlow(k, nf) })
			case 5:
				c1, c2 := draw(), draw()
				cands := []Candidate{{Add: c1, Keep: true}, {Add: c2, Keep: true}}
				var out, tout []WhatIfOutcome
				p.run(tag+" whatif", func(a *Analyzer) error {
					if a == p.ext {
						out = a.WhatIf(cands)
					} else {
						tout = a.WhatIf(cands)
					}
					return nil
				})
				if !reflect.DeepEqual(out, tout) {
					t.Fatalf("%s: whatif %v, twin %v", tag, out, tout)
				}
				// Parallel candidates emit their events in claim order;
				// the comparison starts at the mutation.
				p.extEv.Reset()
				p.twEv.Reset()
				p.run(tag, func(a *Analyzer) error { _, err := a.AddFlow(c1); return err })
			case 6:
				if n == 0 {
					continue
				}
				p.run(tag, func(a *Analyzer) error { return a.RemoveFlow(0) })
			case 7, 8, 9:
				if n == 0 {
					continue
				}
				k := ten.rng.Intn(n)
				nf := p.ext.fs.Flows[k].Clone()
				step := 1 + model.Time(ten.rng.Int63n(int64(nf.Period/2)+1))
				switch b % 10 {
				case 7:
					nf.Period += step
				case 8:
					nf.Period = max(1, nf.Period-step)
				default:
					nf.Deadline = model.Time(ten.rng.Intn(1000))
				}
				p.run(tag, func(a *Analyzer) error { return a.UpdateFlow(k, nf) })
			}
			p.bounds(tag)
		}
	})
}
