package feasibility

import (
	"context"
	"errors"
	"fmt"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// ErrUnknownFlow marks release/renegotiate targets that name no
// admitted flow.
var ErrUnknownFlow = errors.New("feasibility: unknown flow")

// Decision is the outcome of one Controller call.
type Decision struct {
	// Op is the operation: "admit", "release" or "renegotiate".
	Op string
	// Flow names the flow the decision is about.
	Flow string
	// Outcome is "admitted", "released", "renegotiated" or "rejected";
	// empty when the call failed with an error before deciding.
	Outcome string
	// Reason qualifies a rejection: "deadline miss", "unstable" or
	// "no feasible route".
	Reason string
	// Bounds, AllFeasible and MinSlack are the verdict of the judged
	// set: the committed set after a commit, the refused hypothetical
	// set on a deadline miss. Bounds is nil when no set was analysed
	// (an empty set, a divergence, a route refusal); MinSlack is
	// TimeInfinity when no flow has a deadline.
	Bounds      []model.Time
	AllFeasible bool
	MinSlack    model.Time
	// Cands are the scored candidates of a route=auto call (nil
	// otherwise) and Winner the index of the chosen one (-1 when none
	// was feasible).
	Cands  []RouteCandidate
	Winner int
	// Path is the committed route of a route=auto call (nil on refusal
	// and on manual-path calls).
	Path model.Path
}

// Emit records the decision on tr: one route.candidate event per
// scored candidate, the admission.decision itself (Op the operation,
// Outcome the outcome with its reason in parentheses), and for
// route=auto calls the route.decision. The Controller emits nothing on
// its own; callers emit once the decision is final (trajand after its
// journal append), so a decision rolled back by Restore is never
// counted.
func (d *Decision) Emit(tr obs.Tracer, tenant string) {
	if tr == nil {
		return
	}
	for i := range d.Cands {
		tr.Emit(obs.Event{
			Type: obs.EvRouteCandidate, Tenant: tenant, Flow: d.Flow,
			Index: i + 1, Op: fmt.Sprint(d.Cands[i].Path),
			Outcome: d.Cands[i].Outcome, Value: d.Cands[i].MinSlack,
		})
	}
	outcome := d.Outcome
	if d.Reason != "" {
		outcome += " (" + d.Reason + ")"
	}
	tr.Emit(obs.Event{Type: obs.EvAdmission, Op: d.Op, Flow: d.Flow, Outcome: outcome, Tenant: tenant})
	if d.Cands != nil {
		e := obs.Event{
			Type: obs.EvRouteDecision, Tenant: tenant, Flow: d.Flow,
			Op: d.Op, Outcome: d.Outcome, Candidates: len(d.Cands),
		}
		if d.Winner >= 0 {
			e.Index, e.Value = d.Winner+1, d.Cands[d.Winner].MinSlack
		}
		tr.Emit(e)
	}
}

// Controller is the warm admission core: the one implementation of
// the deterministic admission control the paper motivates for the EF
// class (Section 6), shared by trajand, trajan -admit and experiment
// E9. A candidate is admitted only if, with it installed, every flow
// still meets its deadline; renegotiation replaces a contract in place
// under the same test; release always commits.
//
// Each decision costs one warm mutation of a persistent
// trajectory.Analyzer (AddFlow, RemoveFlow, UpdateFlow: a delta
// re-analysis seeded from the previous converged table) and one
// verdict under the selected backend. A refused mutation is undone
// warm; when the undo itself fails, the engine is rebuilt cold from
// the committed set on the next call. The analysed set is taken as
// given: flows needing an Assumption-1 split or a lower-class
// background are AdmitEF's domain.
//
// A Controller is not safe for concurrent use.
type Controller struct {
	net     model.Network
	opt     trajectory.Options
	backend Backend
	topo    *model.Topology
	routeK  int

	// a is the warm engine over fs; nil when the set is empty or when a
	// failed undo left it untrustworthy (warm rebuilds it cold).
	a *trajectory.Analyzer
	// fs is the last committed flow set, nil when empty. It is never
	// mutated: every decision builds a new set.
	fs *model.FlowSet
}

// NewController starts an empty controller. backend selects the
// analysis every verdict is judged on (empty means trajectory; any
// other backend analyses the whole set cold per decision, while the
// warm engine still drives route scoring). A non-nil topo validates
// manual paths edge by edge and enables route=auto, which scores up to
// routeK candidate paths (0 selects DefaultRouteK).
func NewController(net model.Network, opt trajectory.Options, backend Backend, topo *model.Topology, routeK int) (*Controller, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if opt.NonPreemption != nil {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"feasibility: per-flow NonPreemption vectors cannot be remapped across mutations")
	}
	if backend == "" {
		backend = BackendTrajectory
	}
	b, err := ParseBackend(string(backend))
	if err != nil {
		return nil, err
	}
	return &Controller{net: net, opt: opt, backend: b, topo: topo, routeK: routeK}, nil
}

// FlowSet returns the committed flow set (nil when empty).
func (c *Controller) FlowSet() *model.FlowSet { return c.fs }

// Index returns the committed index of the named flow, or -1.
func (c *Controller) Index(name string) int {
	if c.fs == nil {
		return -1
	}
	for i, f := range c.fs.Flows {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Analyzer returns the warm engine over the committed set (nil when
// the set is empty), for what-if batches. Callers must not mutate it.
func (c *Controller) Analyzer() (*trajectory.Analyzer, error) { return c.warm() }

// Restore replaces the committed set with fs (nil for the empty set)
// and drops the warm engine, which the next call rebuilds cold: the
// preload path, and the roll-back when a caller could not make a
// decision durable.
func (c *Controller) Restore(fs *model.FlowSet) {
	if fs != nil && fs.N() == 0 {
		fs = nil
	}
	c.fs, c.a = fs, nil
}

// Judge returns the verdict of the committed set.
func (c *Controller) Judge(ctx context.Context) (Decision, error) {
	var d Decision
	if _, err := c.warm(); err != nil {
		return d, err
	}
	return d, c.judge(ctx, &d)
}

// judge fills d with the verdict of the committed set.
func (c *Controller) judge(ctx context.Context, d *Decision) error {
	res, err := c.verdict(ctx, d)
	if err == nil {
		c.commitVerdict(res)
	}
	return err
}

// Admit tests f against the committed set and commits it when every
// deadline still holds. With route, f's path is read only for its
// endpoints: the candidate paths between them are scored as one
// parallel what-if batch and f is admitted on the feasible one with
// the widest post-admission slack (ChooseRoute).
func (c *Controller) Admit(ctx context.Context, f *model.Flow, route bool) (Decision, error) {
	d := Decision{Op: "admit", Flow: f.Name}
	if route {
		return c.routed(ctx, d, f, -1)
	}
	return c.admit(ctx, d, f)
}

// Renegotiate replaces the contract of the admitted flow named f.Name,
// in place, and keeps it only when every deadline still holds; a
// refusal leaves the old contract at its index. With route, the
// candidate paths are scored as updates of that flow, so a flow whose
// path has turned infeasible moves to the best alternate.
func (c *Controller) Renegotiate(ctx context.Context, f *model.Flow, route bool) (Decision, error) {
	d := Decision{Op: "renegotiate", Flow: f.Name}
	if route && c.topo == nil {
		return d, errNoTopology
	}
	i := c.Index(f.Name)
	if i < 0 {
		return d, model.Errorf(model.ErrInvalidConfig, "%w %q", ErrUnknownFlow, f.Name)
	}
	if route {
		return c.routed(ctx, d, f, i)
	}
	return c.renegotiate(ctx, d, i, f)
}

// Release evicts the named flow. Removal can only shrink interference,
// so it always commits; an error from the re-analysis that follows
// (a timeout) is returned alongside the committed "released" decision.
func (c *Controller) Release(ctx context.Context, name string) (Decision, error) {
	d := Decision{Op: "release", Flow: name}
	i := c.Index(name)
	if i < 0 {
		return d, model.Errorf(model.ErrInvalidConfig, "%w %q", ErrUnknownFlow, name)
	}
	a, err := c.warm()
	if err != nil {
		return d, err
	}
	if c.fs.N() == 1 {
		c.a, c.fs = nil, nil
	} else {
		if err := a.RemoveFlow(i); err != nil {
			return d, err
		}
		c.fs = a.FlowSet()
	}
	d.Outcome = "released"
	return d, c.judge(ctx, &d)
}

var errNoTopology = model.Errorf(model.ErrInvalidConfig, "feasibility: route=auto needs a topology")

// isRefusal classifies analysis errors that mean "candidate refused"
// (the set diverges or overflows the time domain) as opposed to
// request or server failures.
func isRefusal(err error) bool {
	return errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow)
}

// warm returns the engine over the committed set, rebuilding it cold
// when it was dropped.
func (c *Controller) warm() (*trajectory.Analyzer, error) {
	if c.a == nil && c.fs != nil {
		a, err := trajectory.NewAnalyzer(c.fs, c.opt)
		if err != nil {
			return nil, err
		}
		c.a = a
	}
	return c.a, nil
}

// verdict fills d's verdict from the engine's current set: warm bounds
// for the trajectory backend, a cold AnalyzeBackend run otherwise. The
// empty set is trivially feasible.
//
// The backend run is untraced, because the set may be a trial that is
// refused: its provenance records would overwrite the resident flows'
// gauges. Callers pass the returned result (nil for the trajectory
// backend) to commitVerdict once the set is committed.
func (c *Controller) verdict(ctx context.Context, d *Decision) (*BackendResult, error) {
	if c.a == nil {
		d.AllFeasible, d.MinSlack = true, model.TimeInfinity
		return nil, nil
	}
	fs := c.a.FlowSet()
	var res *BackendResult
	if c.backend == BackendTrajectory {
		b, err := c.a.BoundsContext(ctx)
		if err != nil {
			return nil, err
		}
		d.Bounds = b
	} else {
		opt := c.opt
		opt.Tracer = nil
		var err error
		if res, err = AnalyzeBackend(ctx, fs, c.backend, opt); err != nil {
			return nil, err
		}
		d.Bounds = res.Bounds
	}
	d.AllFeasible, d.MinSlack = SetVerdict(fs.Flows, d.Bounds)
	return res, nil
}

// commitVerdict traces the provenance of a committed set's backend
// verdict, as a traced AnalyzeBackend run would have.
func (c *Controller) commitVerdict(res *BackendResult) {
	if res != nil {
		emitProvenance(c.fs, c.opt, res)
	}
}

// decide judges the mutated engine and commits the mutation when every
// deadline holds. Otherwise undo reverts it: a divergence or deadline
// miss is a refusal, any other analysis error the caller's failure.
func (c *Controller) decide(ctx context.Context, d Decision, outcome string, undo func() error) (Decision, error) {
	res, err := c.verdict(ctx, &d)
	if err == nil && d.AllFeasible {
		c.fs = c.a.FlowSet()
		c.commitVerdict(res)
		d.Outcome = outcome
		return d, nil
	}
	if undo() != nil {
		c.a = nil // rebuilt cold from the committed set on the next call
	}
	if err != nil && !isRefusal(err) {
		return d, err
	}
	d.Outcome, d.Reason = "rejected", "deadline miss"
	if err != nil {
		d.Reason = "unstable"
	}
	return d, nil
}

func (c *Controller) admit(ctx context.Context, d Decision, f *model.Flow) (Decision, error) {
	if err := c.validatePath(f); err != nil {
		return d, err
	}
	a, err := c.warm()
	if err != nil {
		return d, err
	}
	if a == nil {
		fs, err := model.NewFlowSet(c.net, []*model.Flow{f})
		if err != nil {
			return d, model.Classify(model.ErrInvalidConfig, err)
		}
		if c.a, err = trajectory.NewAnalyzer(fs, c.opt); err != nil {
			return d, err
		}
		return c.decide(ctx, d, "admitted", func() error { c.a = nil; return nil })
	}
	idx, err := a.AddFlow(f)
	if err != nil {
		return d, model.Classify(model.ErrInvalidConfig, err)
	}
	return c.decide(ctx, d, "admitted", func() error { return a.RemoveFlow(idx) })
}

func (c *Controller) renegotiate(ctx context.Context, d Decision, i int, f *model.Flow) (Decision, error) {
	if err := c.validatePath(f); err != nil {
		return d, err
	}
	a, err := c.warm()
	if err != nil {
		return d, err
	}
	old := c.fs.Flows[i]
	if err := a.UpdateFlow(i, f); err != nil {
		return d, model.Classify(model.ErrInvalidConfig, err)
	}
	return c.decide(ctx, d, "renegotiated", func() error { return a.UpdateFlow(i, old) })
}

// routed is route=auto: score the candidate paths of f as adds
// (updateIdx -1) or as updates of the admitted flow at updateIdx, then
// commit the winner through the manual path. Against the empty set the
// candidates are scored cold, which is ScoreRoutesCold's oracle by
// construction.
func (c *Controller) routed(ctx context.Context, d Decision, f *model.Flow, updateIdx int) (Decision, error) {
	if c.topo == nil {
		return d, errNoTopology
	}
	cfs, err := RouteCandidates(c.topo, f, c.routeK)
	if err != nil {
		return d, err
	}
	a, err := c.warm()
	if err != nil {
		return d, err
	}
	if a == nil {
		d.Cands = ScoreRoutesCold(ctx, c.net, c.opt, nil, cfs)
	} else {
		d.Cands = ScoreRoutesWhatIf(ctx, a, cfs, updateIdx)
	}
	d.Winner = ChooseRoute(d.Cands)
	if d.Winner < 0 {
		d.Outcome, d.Reason = "rejected", "no feasible route"
		return d, nil
	}
	w := d.Cands[d.Winner]
	if updateIdx < 0 {
		d, err = c.admit(ctx, d, w.Flow)
	} else {
		d, err = c.renegotiate(ctx, d, updateIdx, w.Flow)
	}
	if err == nil && d.Outcome != "rejected" {
		d.Path = w.Path
	}
	return d, err
}

// validatePath checks a manually routed flow's path edge by edge
// against the topology: a path over links the network does not have is
// invalid input, not an analysis of a fictional graph. Without a
// topology paths are taken at face value.
func (c *Controller) validatePath(f *model.Flow) error {
	if c.topo == nil {
		return nil
	}
	if err := c.topo.ValidatePath(f.Path); err != nil {
		return model.Errorf(model.ErrInvalidConfig, "feasibility: flow %q: %w", f.Name, err)
	}
	return nil
}
