package feasibility

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// coldOracle predicts every Controller decision from cold analyses of
// the set the decision would commit, never from a warm engine. flows
// is the committed set the Controller must hold.
type coldOracle struct {
	t       *testing.T
	net     model.Network
	opt     trajectory.Options
	backend Backend
	topo    *model.Topology
	flows   []*model.Flow
}

// analyse is the cold verdict of one hypothetical set: trajectory.
// AnalyzeContext (AnalyzeBackend for other backends) and SetVerdict.
func (o *coldOracle) analyse(flows []*model.Flow) (bounds []model.Time, ok bool, minSlack model.Time, err error) {
	fs, err := model.NewFlowSet(o.net, flows)
	if err != nil {
		return nil, false, 0, model.Classify(model.ErrInvalidConfig, err)
	}
	if o.backend == "" || o.backend == BackendTrajectory {
		res, err := trajectory.AnalyzeContext(context.Background(), fs, o.opt)
		if err != nil {
			return nil, false, 0, err
		}
		bounds = res.Bounds
	} else {
		res, err := AnalyzeBackend(context.Background(), fs, o.backend, o.opt)
		if err != nil {
			return nil, false, 0, err
		}
		bounds = res.Bounds
	}
	ok, minSlack = SetVerdict(flows, bounds)
	return bounds, ok, minSlack, nil
}

// expect turns a cold verdict of trial into the decision the core must
// make, and commits trial when that decision commits.
func (o *coldOracle) expect(op, outcome string, trial []*model.Flow) (Decision, error) {
	bounds, ok, minSlack, err := o.analyse(trial)
	want := Decision{Op: op, Bounds: bounds, AllFeasible: ok, MinSlack: minSlack}
	switch {
	case err != nil && !isRefusal(err):
		return want, err
	case err != nil:
		want.Outcome, want.Reason = "rejected", "unstable"
	case !ok && op != "release":
		want.Outcome, want.Reason = "rejected", "deadline miss"
	default:
		want.Outcome = outcome
		o.flows = trial
	}
	return want, nil
}

func (o *coldOracle) index(name string) int {
	for i, f := range o.flows {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func (o *coldOracle) with(i int, f *model.Flow) []*model.Flow {
	trial := append([]*model.Flow(nil), o.flows...)
	if i < 0 {
		return append(trial, f)
	}
	trial[i] = f
	return trial
}

// admit predicts a manual admission; the trajectory verdict must also
// match ScoreRoutesCold scoring f as a single candidate.
func (o *coldOracle) admit(f *model.Flow) (Decision, error) {
	if o.backend == "" || o.backend == BackendTrajectory {
		sc := ScoreRoutesCold(context.Background(), o.net, o.opt, o.flows, []*model.Flow{f})[0]
		_, ok, minSlack, err := o.analyse(o.with(-1, f))
		if sc.Outcome != ClassifyRouteOutcome(err, ok) || (err == nil && sc.MinSlack != minSlack) {
			o.t.Fatalf("admit %s: ScoreRoutesCold %s/%d disagrees with cold analysis %v/%d (%v)",
				f.Name, sc.Outcome, sc.MinSlack, ok, minSlack, err)
		}
	}
	return o.expect("admit", "admitted", o.with(-1, f))
}

func (o *coldOracle) renegotiate(f *model.Flow) (Decision, error) {
	return o.expect("renegotiate", "renegotiated", o.with(o.index(f.Name), f))
}

func (o *coldOracle) release(name string) (Decision, error) {
	i := o.index(name)
	trial := append(append([]*model.Flow(nil), o.flows[:i]...), o.flows[i+1:]...)
	return o.expect("release", "released", trial)
}

// route predicts a route=auto decision: every candidate scored cold
// under the trajectory analysis — ScoreRoutesCold for adds, one cold
// analysis per hypothetical update for renegotiations — then
// ChooseRoute and the manual commit under the oracle's backend.
func (o *coldOracle) route(op string, f *model.Flow) (Decision, error) {
	scorer := *o
	scorer.backend = BackendTrajectory
	cfs, err := RouteCandidates(o.topo, f, DefaultRouteK)
	if err != nil {
		return Decision{Op: op}, err
	}
	var cands []RouteCandidate
	if op == "admit" {
		cands = ScoreRoutesCold(context.Background(), o.net, o.opt, o.flows, cfs)
	} else {
		i := o.index(f.Name)
		for _, cf := range cfs {
			_, ok, minSlack, err := scorer.analyse(o.with(i, cf))
			rc := RouteCandidate{Path: cf.Path, Flow: cf, Err: err, Outcome: ClassifyRouteOutcome(err, ok)}
			if err == nil {
				rc.MinSlack = minSlack
			}
			cands = append(cands, rc)
		}
	}
	win := ChooseRoute(cands)
	if win < 0 {
		return Decision{Op: op, Outcome: "rejected", Reason: "no feasible route", Cands: cands, Winner: win}, nil
	}
	var want Decision
	if op == "admit" {
		want, err = o.admit(cands[win].Flow)
	} else {
		want, err = o.renegotiate(cands[win].Flow)
	}
	want.Cands, want.Winner = cands, win
	if want.Outcome != "rejected" {
		want.Path = cands[win].Path
	}
	return want, err
}

// check compares one core decision against the oracle's, bit for bit,
// and the core's committed set against the oracle's.
func (o *coldOracle) check(step string, c *Controller, got Decision, gotErr error, want Decision, wantErr error) {
	o.t.Helper()
	if (gotErr == nil) != (wantErr == nil) ||
		errors.Is(gotErr, model.ErrInvalidConfig) != errors.Is(wantErr, model.ErrInvalidConfig) {
		o.t.Fatalf("%s: core err %v, cold oracle err %v", step, gotErr, wantErr)
	}
	if gotErr == nil {
		if got.Op != want.Op || got.Outcome != want.Outcome || got.Reason != want.Reason {
			o.t.Fatalf("%s: core %s %s (%s), cold oracle %s %s (%s)", step,
				got.Op, got.Outcome, got.Reason, want.Op, want.Outcome, want.Reason)
		}
		if want.Outcome != "rejected" || want.Reason == "deadline miss" {
			if !reflect.DeepEqual(got.Bounds, want.Bounds) || got.AllFeasible != want.AllFeasible || got.MinSlack != want.MinSlack {
				o.t.Fatalf("%s: core bounds %v (%v, slack %d), cold oracle %v (%v, slack %d)", step,
					got.Bounds, got.AllFeasible, got.MinSlack, want.Bounds, want.AllFeasible, want.MinSlack)
			}
		}
		if (want.Cands != nil && got.Winner != want.Winner) || !reflect.DeepEqual(got.Path, want.Path) ||
			len(got.Cands) != len(want.Cands) {
			o.t.Fatalf("%s: core route %d %v (%d cands), cold oracle %d %v (%d cands)", step,
				got.Winner, got.Path, len(got.Cands), want.Winner, want.Path, len(want.Cands))
		}
		for i := range want.Cands {
			g, w := got.Cands[i], want.Cands[i]
			if g.Outcome != w.Outcome || g.MinSlack != w.MinSlack || !reflect.DeepEqual(g.Path, w.Path) {
				o.t.Fatalf("%s: candidate %d core %s/%d %v, cold oracle %s/%d %v", step, i,
					g.Outcome, g.MinSlack, g.Path, w.Outcome, w.MinSlack, w.Path)
			}
		}
	}
	var names []string
	for _, f := range c.FlowSet().Flows {
		names = append(names, fmt.Sprintf("%s%v/%d/%d", f.Name, f.Path, f.Period, f.Deadline))
	}
	var wantNames []string
	for _, f := range o.flows {
		wantNames = append(wantNames, fmt.Sprintf("%s%v/%d/%d", f.Name, f.Path, f.Period, f.Deadline))
	}
	if !reflect.DeepEqual(names, wantNames) {
		o.t.Fatalf("%s: core holds %v, cold oracle %v", step, names, wantNames)
	}
}

func newController(t *testing.T, net model.Network, opt trajectory.Options, backend Backend, topo *model.Topology) (*Controller, *coldOracle) {
	t.Helper()
	c, err := NewController(net, opt, backend, topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, &coldOracle{t: t, net: net, opt: opt, backend: backend, topo: topo}
}

// randomBlocking gives f a random per-node non-preemption Blocking
// row, or none (one draw in two), and returns it.
func randomBlocking(rng *rand.Rand, f *model.Flow) *model.Flow {
	if rng.Intn(2) == 0 {
		f.Blocking = make([]model.Time, len(f.Path))
		for k := range f.Blocking {
			f.Blocking[k] = model.Time(rng.Intn(4))
		}
	}
	return f
}

// TestControllerDifferential drives seeded random admit, release,
// renegotiate and route=auto sequences through the warm core on a Clos
// fabric and checks after every step that its decision, bounds and
// committed set equal the cold oracle's. Manual admits and
// renegotiations may carry Blocking (an EF set's Lemma-4 δ). After the
// random steps, every committed flow is renegotiated three times with
// the same path, costs, jitter and Blocking: its period scaled by
// 0.8–1.25 as served, its period cut to its cost, which the core
// refuses and undoes, and its deadline alone, so the analyzer's view
// patch and the undo of a refused patch meet the oracle too. Run under
// -race in CI.
func TestControllerDifferential(t *testing.T) {
	topo, err := workload.ClosTopology(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		for _, backend := range []Backend{BackendTrajectory, BackendCombined} {
			rng := rand.New(rand.NewSource(seed))
			c, o := newController(t, model.UnitDelayNetwork(), trajectory.Options{}, backend, topo)
			mk := func(name string) *model.Flow {
				src, dst := rng.Intn(4), rng.Intn(3)
				if dst >= src {
					dst++
				}
				p, err := topo.Route(workload.ClosHost(src, rng.Intn(2)), workload.ClosHost(dst, rng.Intn(2)))
				if err != nil {
					t.Fatal(err)
				}
				var deadline model.Time
				if rng.Intn(4) > 0 {
					deadline = model.Time(25 + rng.Intn(60))
				}
				return model.UniformFlow(name, model.Time(30+rng.Intn(90)), model.Time(rng.Intn(3)), deadline,
					model.Time(1+rng.Intn(6)), p...)
			}
			steps := 60
			if backend != BackendTrajectory {
				steps = 25
			}
			decided := map[string]int{}
			record := func(step string, got Decision, gotErr error, want Decision, wantErr error) {
				o.check(step, c, got, gotErr, want, wantErr)
				if got.Cands != nil && got.Winner >= 0 && got.Outcome != "rejected" {
					// A route=auto commit adopted the winner's fork.
					a, err := c.Analyzer()
					if err != nil {
						t.Fatal(err)
					}
					requireEngineMatchesCold(t, step, a, trajectory.Options{})
				}
				decided[got.Op+" "+got.Outcome]++
			}
			for k := 0; k < steps; k++ {
				var got, want Decision
				var gotErr, wantErr error
				step := fmt.Sprintf("seed %d %s step %d", seed, backend, k)
				op := rng.Intn(10)
				if len(o.flows) == 0 {
					op %= 5 // admits only
				}
				switch {
				case op < 3:
					f := randomBlocking(rng, mk(fmt.Sprintf("f%02d", k)))
					want, wantErr = o.admit(f)
					got, gotErr = c.Admit(ctx, f, false)
				case op < 5:
					f := mk(fmt.Sprintf("f%02d", k))
					want, wantErr = o.route("admit", f)
					got, gotErr = c.Admit(ctx, f, true)
				case op < 7:
					f := mk(o.flows[rng.Intn(len(o.flows))].Name)
					route := op == 6
					if route {
						want, wantErr = o.route("renegotiate", f)
					} else {
						want, wantErr = o.renegotiate(randomBlocking(rng, f))
					}
					got, gotErr = c.Renegotiate(ctx, f, route)
				default:
					name := o.flows[rng.Intn(len(o.flows))].Name
					want, wantErr = o.release(name)
					got, gotErr = c.Release(ctx, name)
				}
				record(step, got, gotErr, want, wantErr)
			}
			prng := rand.New(rand.NewSource(seed + 100))
			for _, g := range append([]*model.Flow(nil), o.flows...) {
				for r, change := range []func(f *model.Flow){
					func(f *model.Flow) { f.Period = max(1, f.Period*model.Time(80+prng.Intn(46))/100) },
					func(f *model.Flow) { f.Period = f.Cost[0] },
					func(f *model.Flow) { f.Deadline = model.Time(25 + prng.Intn(60)) },
				} {
					f := o.flows[o.index(g.Name)].Clone()
					change(f)
					want, wantErr := o.renegotiate(f)
					got, gotErr := c.Renegotiate(ctx, f, false)
					record(fmt.Sprintf("seed %d %s renegotiation %d of %s", seed, backend, r, g.Name), got, gotErr, want, wantErr)
				}
			}
			// Drain and refill: release every flow, admit from the empty
			// set by route=auto, drain again, admit manually from empty,
			// route once more onto the one-flow set, and drain last. The
			// first admission and the last release are judged like any
			// other decision. A refill flow has no deadline, so no draw
			// can make the oracle refuse it.
			drain := func(phase string) {
				for len(o.flows) > 0 {
					name := o.flows[0].Name
					want, wantErr := o.release(name)
					got, gotErr := c.Release(ctx, name)
					record(fmt.Sprintf("seed %d %s %s release %s", seed, backend, phase, name), got, gotErr, want, wantErr)
				}
			}
			for k, route := range []bool{true, false, true} {
				if k < 2 {
					drain(fmt.Sprintf("drain %d", k))
				}
				f := mk(fmt.Sprintf("g%d", k))
				f.Deadline = 0
				var want Decision
				var wantErr error
				if route {
					want, wantErr = o.route("admit", f)
				} else {
					want, wantErr = o.admit(f)
				}
				got, gotErr := c.Admit(ctx, f, route)
				step := fmt.Sprintf("seed %d %s refill %d", seed, backend, k)
				record(step, got, gotErr, want, wantErr)
				if got.Outcome != "admitted" {
					t.Fatalf("%s: %s (%s), want a refill admitted", step, got.Outcome, got.Reason)
				}
			}
			drain("final drain")
			t.Logf("seed %d %s: %v", seed, backend, decided)
			if backend == BackendTrajectory && (decided["admit admitted"] == 0 || decided["admit rejected"] == 0 ||
				decided["renegotiate renegotiated"] == 0 || decided["release released"] == 0) {
				t.Fatalf("seed %d: degenerate sequence %v", seed, decided)
			}
		}
	}
}
