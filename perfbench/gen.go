package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// fabric is the leaf-spine network the served workloads run on.
type fabric struct {
	spines, leaves, hosts int
	topo                  *model.Topology
	// pairSpine[a][b] (a < b) is the spine every manually routed flow
	// between leaves a and b crosses. Assumption 1 forbids two flows of
	// one leaf pair on different spines (the second would leave the
	// first one's path and come back), so manual paths pin one spine per
	// pair; route=auto finds the same constraint by itself.
	pairSpine [][]int
}

func newFabric(spines, leaves, hosts int, rng *rand.Rand) (*fabric, error) {
	topo, err := workload.ClosTopology(spines, leaves, hosts)
	if err != nil {
		return nil, err
	}
	fab := &fabric{spines: spines, leaves: leaves, hosts: hosts, topo: topo, pairSpine: make([][]int, leaves)}
	for a := range fab.pairSpine {
		fab.pairSpine[a] = make([]int, leaves)
		for b := a + 1; b < leaves; b++ {
			fab.pairSpine[a][b] = rng.Intn(spines)
		}
	}
	return fab, nil
}

// path routes host hs of leaf sl to host hd of leaf dl: through the
// pair's pinned spine, or through spine 0 (the deterministic direct
// route) when route=auto will choose the path anyway.
func (fab *fabric) path(sl, hs, dl, hd int, auto bool) []model.NodeID {
	spine := 0
	if !auto {
		spine = fab.pairSpine[min(sl, dl)][max(sl, dl)]
	}
	return []model.NodeID{
		workload.ClosHost(sl, hs), workload.ClosLeaf(sl), workload.ClosSpine(spine),
		workload.ClosLeaf(dl), workload.ClosHost(dl, hd),
	}
}

// genParams shapes one served workload's request stream.
type genParams struct {
	// window is how many of its latest arrivals a client keeps: once
	// it is full, the oldest arrival departs (released if it was
	// admitted) before the next one comes. The resident set is the
	// admitted part of the window, so it stays steady and refusals
	// never stall the stream.
	window int
	// renegFrac is the share of steps at the resident size that
	// renegotiate a flow instead of releasing one.
	renegFrac float64
	// Contracts: uniform per-node cost, period and deadline ranges (a
	// zero deadline range leaves flows without deadlines).
	costLo, costHi         model.Time
	periodLo, periodHi     model.Time
	deadlineLo, deadlineHi model.Time
	// auto sends admits and renegotiations with route=auto.
	auto bool
}

// flowGen is one client's deterministic request stream.
type flowGen struct {
	p      genParams
	fab    *fabric
	rng    *rand.Rand
	prefix string
	next   int
	// pairs lists every ordered pair of distinct leaves in a seeded
	// order; arrival k takes pairs[k mod len], so every seed loads the
	// fabric evenly and only the pinned spines, hosts and contracts vary.
	pairs    [][2]int
	arrivals []string                    // the window: latest arrivals, oldest first
	admitd   map[string]model.FlowConfig // admitted contracts by name
}

func newFlowGen(p genParams, fab *fabric, seed int64, client int) *flowGen {
	g := &flowGen{
		p:      p,
		fab:    fab,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		prefix: fmt.Sprintf("c%d-", client),
		admitd: make(map[string]model.FlowConfig),
	}
	for a := 0; a < fab.leaves; a++ {
		for b := 0; b < fab.leaves; b++ {
			if a != b {
				g.pairs = append(g.pairs, [2]int{a, b})
			}
		}
	}
	g.rng.Shuffle(len(g.pairs), func(i, j int) { g.pairs[i], g.pairs[j] = g.pairs[j], g.pairs[i] })
	return g
}

func (g *flowGen) between(lo, hi model.Time) model.Time {
	return lo + model.Time(g.rng.Int63n(int64(hi-lo+1)))
}

// flow draws a fresh east-west contract.
func (g *flowGen) flow() model.FlowConfig {
	H := g.fab.hosts
	sl, dl := g.pairs[g.next%len(g.pairs)][0], g.pairs[g.next%len(g.pairs)][1]
	// Names recycle over twice the window: a name comes back only after
	// its previous owner has left the window (released if it was
	// admitted). The daemon keeps metric series per flow name, so unique
	// names would make its heap grow with the run's length and
	// throughput rather than with the resident set.
	id := g.next
	if w := g.p.window; w > 0 {
		id %= 2 * w
	}
	name := g.prefix + strconv.Itoa(id)
	g.next++
	return model.FlowConfig{
		Name:     name,
		Period:   g.between(g.p.periodLo, g.p.periodHi),
		Deadline: g.between(g.p.deadlineLo, g.p.deadlineHi),
		Path:     g.fab.path(sl, g.rng.Intn(H), dl, g.rng.Intn(H), g.p.auto),
		Cost:     []byte(strconv.FormatInt(int64(g.between(g.p.costLo, g.p.costHi)), 10)),
	}
}

// renegotiated returns a new contract for an admitted flow: the same
// endpoints and cost, its period scaled by 0.8–1.25.
func (g *flowGen) renegotiated(name string) model.FlowConfig {
	fc := g.admitd[name]
	fc.Period = max(g.p.costHi+1, fc.Period*model.Time(80+g.rng.Intn(46))/100)
	return fc
}

type stepKind int

const (
	stepArrive stepKind = iota
	stepRenegotiate
	stepRelease
)

// step picks the next action: arrivals until the window is full, then
// renegotiations of a random admitted flow and departures of the oldest
// arrival (a refused one departs without a request).
func (g *flowGen) step() (stepKind, string) {
	for len(g.arrivals) >= g.p.window {
		if len(g.admitd) > 0 && g.rng.Float64() < g.p.renegFrac {
			return stepRenegotiate, g.arrivals[g.randomAdmitted()]
		}
		oldest := g.arrivals[0]
		g.arrivals = g.arrivals[1:]
		if _, ok := g.admitd[oldest]; ok {
			return stepRelease, oldest
		}
	}
	return stepArrive, ""
}

// randomAdmitted picks the window index of a random admitted flow.
func (g *flowGen) randomAdmitted() int {
	k := g.rng.Intn(len(g.admitd))
	for i, name := range g.arrivals {
		if _, ok := g.admitd[name]; ok {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("admitted flow outside the window") // admitd only holds window members
}

// arrived records an arrival in the window and, if admitted, its
// contract.
func (g *flowGen) arrived(fc model.FlowConfig, admitted bool) {
	g.arrivals = append(g.arrivals, fc.Name)
	if admitted {
		g.admitd[fc.Name] = fc
	}
}

// renegotiatedTo records a committed renegotiation.
func (g *flowGen) renegotiatedTo(fc model.FlowConfig) { g.admitd[fc.Name] = fc }

func (g *flowGen) released(name string) { delete(g.admitd, name) }
