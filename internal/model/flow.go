package model

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node (router) of the network. Node identifiers
// need not be dense; they are opaque labels.
type NodeID int

// Path is the fixed, ordered sequence of nodes visited by a flow, from
// its ingress node to its egress node (the paper's Pi = [firsti..lasti]).
// Fixed routes can be realized with source routing or MPLS.
type Path []NodeID

// First returns the ingress node of the path.
func (p Path) First() NodeID { return p[0] }

// Last returns the egress node of the path.
func (p Path) Last() NodeID { return p[len(p)-1] }

// Contains reports whether node h is visited by the path.
func (p Path) Contains(h NodeID) bool { return p.Index(h) >= 0 }

// Index returns the position of node h on the path, or -1 if absent.
func (p Path) Index(h NodeID) int {
	for i, n := range p {
		if n == h {
			return i
		}
	}
	return -1
}

// Pre returns the node visited just before h (the paper's pre_i(h)),
// or an ErrInvalidConfig error when h is the first node or not on the
// path — node arguments typically come straight from user input.
func (p Path) Pre(h NodeID) (NodeID, error) {
	i := p.Index(h)
	if i <= 0 {
		return 0, Errorf(ErrInvalidConfig, "model.Path.Pre: node %d has no predecessor on %v", h, p)
	}
	return p[i-1], nil
}

// Suc returns the node visited just after h (the paper's suc_i(h)),
// or an ErrInvalidConfig error when h is the last node or not on the
// path.
func (p Path) Suc(h NodeID) (NodeID, error) {
	i := p.Index(h)
	if i < 0 || i == len(p)-1 {
		return 0, Errorf(ErrInvalidConfig, "model.Path.Suc: node %d has no successor on %v", h, p)
	}
	return p[i+1], nil
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// validate checks structural invariants: non-empty and loop-free.
func (p Path) validate() error {
	if len(p) == 0 {
		return errors.New("empty path")
	}
	seen := make(map[NodeID]struct{}, len(p))
	for _, n := range p {
		if _, dup := seen[n]; dup {
			return fmt.Errorf("path %v visits node %d twice", p, n)
		}
		seen[n] = struct{}{}
	}
	return nil
}

// Class partitions flows into DiffServ-style service classes. The
// analysis of Sections 4–5 treats all flows as one FIFO aggregate
// (ClassEF by default); Section 6 adds lower-priority classes whose
// packets contribute only a non-preemption penalty.
type Class int

const (
	// ClassEF is the Expedited Forwarding class: scheduled at fixed top
	// priority, FIFO within the class. This is the analysed class.
	ClassEF Class = iota
	// ClassAF is Assured Forwarding: scheduled below EF under WFQ.
	ClassAF
	// ClassBE is Best Effort: scheduled below EF under WFQ.
	ClassBE
)

// String returns the conventional DiffServ name of the class.
func (c Class) String() string {
	switch c {
	case ClassEF:
		return "EF"
	case ClassAF:
		return "AF"
	case ClassBE:
		return "BE"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Flow is a sporadic flow τi (paper Section 2.1). Packets are generated
// at least Period apart, become visible to the ingress scheduler at most
// Jitter after generation, take at most Cost[k] ticks of processing on
// the k-th node of Path, and must be delivered within Deadline of
// generation.
type Flow struct {
	// Name is a human-readable label (e.g. "tau1"); unique per flow set.
	Name string
	// Period is Ti, the minimum interarrival time between two successive
	// packets of the flow at its ingress node.
	Period Time
	// Jitter is Ji, the maximum release jitter at the ingress node: the
	// delay between a packet's generation and the instant the ingress
	// scheduler takes it into account.
	Jitter Time
	// Deadline is Di, the maximum acceptable end-to-end response time.
	// A packet generated at t must be delivered by t+Di. Zero means
	// "no deadline" for analyses that only compute bounds.
	Deadline Time
	// Path is Pi, the fixed ordered sequence of visited nodes.
	Path Path
	// Cost[k] is C^h_i for h = Path[k]: the maximum processing time of a
	// packet of the flow on the k-th visited node. By the paper's
	// convention C^h_i = 0 for nodes not on the path.
	Cost []Time
	// Blocking[k] is the non-preemption blocking charged at Path[k]:
	// Lemma 4's δi of an EF flow, decomposed per visited node (package
	// ef computes it; Property 3 adds it to the FIFO bound of Property
	// 2). The decomposition matters because the Smax^h estimators bound
	// path prefixes, which incur only their own nodes' blocking. Nil
	// means none — the pure FIFO analysis. The JSON schema (FlowConfig)
	// does not carry it.
	Blocking []Time
	// Class is the flow's service class; the FIFO analysis applies to
	// flows of the analysed (EF) class, other classes matter only
	// through the non-preemption penalty of Section 6.
	Class Class
	// parent records the original flow index when this flow is a virtual
	// fragment created by the Assumption-1 split; -1 otherwise.
	parent int
	// fragStart is the fragment's starting position in the original
	// parent path (0 for whole flows), ordering sibling fragments.
	fragStart int
}

// CostAt returns C^h_i: the flow's maximum processing time on node h,
// zero when the flow does not visit h.
func (f *Flow) CostAt(h NodeID) Time {
	if i := f.Path.Index(h); i >= 0 {
		return f.Cost[i]
	}
	return 0
}

// SlowNode returns slow_i: a node of the path with maximal processing
// cost, together with that cost. Ties resolve to the earliest such node;
// the analysis layer may enumerate the full tie set via SlowCandidates.
func (f *Flow) SlowNode() (NodeID, Time) {
	best, bc := f.Path[0], f.Cost[0]
	for k := 1; k < len(f.Path); k++ {
		if f.Cost[k] > bc {
			best, bc = f.Path[k], f.Cost[k]
		}
	}
	return best, bc
}

// BlockingOver returns the non-preemption blocking over the first n
// nodes of the path, saturating (and setting *sat) like AddSat.
func (f *Flow) BlockingOver(n int, sat *bool) Time {
	var s Time
	for _, b := range f.Blocking[:min(n, len(f.Blocking))] {
		s = AddSat(s, b, sat)
	}
	return s
}

// SlowCandidates returns every node of the path whose cost equals the
// maximal per-node cost. Any of them is a valid slow_i in the paper's
// derivation, so a tight analysis may minimize over the set.
func (f *Flow) SlowCandidates() []NodeID {
	_, bc := f.SlowNode()
	var out []NodeID
	for k, h := range f.Path {
		if f.Cost[k] == bc {
			out = append(out, h)
		}
	}
	return out
}

// TotalCost returns Σ_{h∈Pi} C^h_i, the end-to-end processing demand of
// one packet. The sum saturates at TimeInfinity for extreme inputs so
// it can never wrap into a small finite value.
func (f *Flow) TotalCost() Time {
	var s Time
	var sat bool
	for _, c := range f.Cost {
		s = AddSat(s, c, &sat)
	}
	return s
}

// MinTraversal returns the minimum end-to-end response time of a packet:
// all processing plus Lmin per link, with no queueing (Definition 2's
// subtrahend). Saturates at TimeInfinity like TotalCost.
func (f *Flow) MinTraversal(lmin Time) Time {
	var sat bool
	return AddSat(f.TotalCost(), MulSat(Time(len(f.Path)-1), lmin, &sat), &sat)
}

// IsVirtual reports whether the flow is a fragment produced by the
// Assumption-1 split of another flow.
func (f *Flow) IsVirtual() bool { return f.parent >= 0 }

// Parent returns the index (in the original flow list) of the flow this
// fragment was split from, and whether the flow is such a fragment.
func (f *Flow) Parent() (int, bool) { return f.parent, f.parent >= 0 }

// FragmentStart returns the fragment's starting position on the
// original parent path; sibling fragments sorted by it partition the
// parent path in traversal order.
func (f *Flow) FragmentStart() int { return f.fragStart }

// Validate checks the structural invariants of a single flow. All
// violations are classified ErrInvalidConfig.
func (f *Flow) Validate() error {
	if err := f.Path.validate(); err != nil {
		return Errorf(ErrInvalidConfig, "flow %q: %w", f.Name, err)
	}
	if len(f.Cost) != len(f.Path) {
		return Errorf(ErrInvalidConfig, "flow %q: %d costs for %d path nodes", f.Name, len(f.Cost), len(f.Path))
	}
	if f.Period <= 0 {
		return Errorf(ErrInvalidConfig, "flow %q: non-positive period %d", f.Name, f.Period)
	}
	if f.Jitter < 0 {
		return Errorf(ErrInvalidConfig, "flow %q: negative jitter %d", f.Name, f.Jitter)
	}
	if f.Deadline < 0 {
		return Errorf(ErrInvalidConfig, "flow %q: negative deadline %d", f.Name, f.Deadline)
	}
	for k, c := range f.Cost {
		if c <= 0 {
			return Errorf(ErrInvalidConfig, "flow %q: non-positive cost %d at node %d", f.Name, c, f.Path[k])
		}
	}
	if f.Blocking != nil && len(f.Blocking) != len(f.Path) {
		return Errorf(ErrInvalidConfig, "flow %q: %d blocking terms for %d path nodes", f.Name, len(f.Blocking), len(f.Path))
	}
	for k, b := range f.Blocking {
		if b < 0 || IsUnbounded(b) {
			return Errorf(ErrInvalidConfig, "flow %q: blocking %d at node %d outside [0, time domain)", f.Name, b, f.Path[k])
		}
	}
	// The analysis domain is (−TimeInfinity, TimeInfinity); parameters on
	// or past the rail would alias the "unbounded" sentinel. Rejecting
	// them here is what lets the hot paths run exact int64 arithmetic
	// once the saturating guard has cleared a scan (see internal/model/sat.go).
	for _, p := range []struct {
		what string
		v    Time
	}{
		{"period", f.Period}, {"jitter", f.Jitter}, {"deadline", f.Deadline},
	} {
		if IsUnbounded(p.v) {
			return Errorf(ErrInvalidConfig, "flow %q: %s %d exceeds the representable time domain", f.Name, p.what, p.v)
		}
	}
	for k, c := range f.Cost {
		if IsUnbounded(c) {
			return Errorf(ErrInvalidConfig, "flow %q: cost %d at node %d exceeds the representable time domain", f.Name, c, f.Path[k])
		}
	}
	return nil
}

// Clone returns a deep copy of the flow.
func (f *Flow) Clone() *Flow {
	g := *f
	g.Path = f.Path.Clone()
	g.Cost = append([]Time(nil), f.Cost...)
	if f.Blocking != nil {
		g.Blocking = append([]Time(nil), f.Blocking...)
	}
	return &g
}

// Equal reports whether f and g describe the same flow: every field,
// a fragment's origin included. Nil and empty slices compare equal, as
// the analyses read them alike.
func (f *Flow) Equal(g *Flow) bool {
	return f.Name == g.Name && f.Period == g.Period && f.Jitter == g.Jitter &&
		f.Deadline == g.Deadline && f.Class == g.Class &&
		f.parent == g.parent && f.fragStart == g.fragStart &&
		slices.Equal(f.Path, g.Path) && slices.Equal(f.Cost, g.Cost) &&
		slices.Equal(f.Blocking, g.Blocking)
}

// UniformFlow builds a flow whose processing cost is the same on every
// visited node — the shape used throughout the paper's example.
func UniformFlow(name string, period, jitter, deadline, cost Time, path ...NodeID) *Flow {
	costs := make([]Time, len(path))
	for i := range costs {
		costs[i] = cost
	}
	return &Flow{
		Name:     name,
		Period:   period,
		Jitter:   jitter,
		Deadline: deadline,
		Path:     Path(path),
		Cost:     costs,
		Class:    ClassEF,
		parent:   -1,
	}
}
