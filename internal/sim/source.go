package sim

import (
	"math/rand"
	"sort"
	"sync"

	"trajan/internal/model"
)

// PacketSpec describes one packet drawn from a ScenarioSource.
type PacketSpec struct {
	// Seq is the packet's sequence number within its flow.
	Seq int
	// Generated and Released are the generation and release times
	// (Released = Generated + release jitter).
	Generated, Released model.Time
	// Proc[s] is the processing time at the s-th node of the flow's
	// path; nil means the flow's worst-case Cost everywhere.
	Proc []model.Time
	// Link[s] is the link delay from the s-th to the (s+1)-th node; nil
	// means Lmax everywhere.
	Link []model.Time
}

// ScenarioSource streams packets one flow at a time, so a run's memory
// never depends on how many packets it simulates. A materialized
// Scenario adapts to it via Source; random generators implement it
// directly.
//
// Contract (the engine enforces what it can at runtime and aborts the
// run on violation rather than corrupting its event calendar):
//   - Released must be nondecreasing across successive Next calls for
//     the same flow (sort or clamp on the producer side).
//   - Proc samples must lie in [1, horizon] and Link samples in
//     [0, horizon], where horizon = max(all per-hop worst-case costs,
//     Lmax); in-contract samples (Proc ≤ C, Link ≤ Lmax) always do.
//   - spec.Proc / spec.Link need only stay valid until the next Next
//     call for the same flow — the engine copies them; producers may
//     reuse per-flow buffers.
//   - Per-flow streams must not depend on the interleaving of Next
//     calls across flows (give each flow its own RNG stream), so that
//     results are reproducible.
//   - TieBreak and Next calls for flows of different interference
//     components (model.FlowSet.Components) may run concurrently: the
//     engine simulates components on separate workers. A source that
//     keeps per-flow state only, as every source in this repository
//     does, needs no locking.
type ScenarioSource interface {
	// Flows is the number of flows (must match the engine's flow set).
	Flows() int
	// TieBreak is flow i's rank among simultaneous arrivals.
	TieBreak(flow int) int
	// Next fills spec with flow's next packet, or returns false when
	// the flow is exhausted.
	Next(flow int, spec *PacketSpec) bool
}

// scenarioSource adapts a materialized Scenario: each flow's packet
// indices are pre-sorted by release time (stable, so equal releases
// keep sequence order), which makes the stream's Released nondecreasing
// even when jitter reorders releases relative to generations.
type scenarioSource struct {
	sc    *Scenario
	order [][]int32
	pos   []int
}

// Source exposes the scenario as a streaming packet source. The
// scenario must not be mutated while the source is in use.
func (sc *Scenario) Source() ScenarioSource {
	s := &scenarioSource{
		sc:    sc,
		order: make([][]int32, len(sc.Gen)),
		pos:   make([]int, len(sc.Gen)),
	}
	for i := range sc.Gen {
		idx := make([]int32, len(sc.Gen[i]))
		for k := range idx {
			idx[k] = int32(k)
		}
		rel := func(k int32) model.Time { return sc.Gen[i][k] + sc.jitter(i, int(k)) }
		sort.SliceStable(idx, func(a, b int) bool { return rel(idx[a]) < rel(idx[b]) })
		s.order[i] = idx
	}
	return s
}

func (s *scenarioSource) Flows() int            { return len(s.sc.Gen) }
func (s *scenarioSource) TieBreak(flow int) int { return s.sc.tiebreak(flow) }

func (s *scenarioSource) Next(flow int, spec *PacketSpec) bool {
	p := s.pos[flow]
	if p >= len(s.order[flow]) {
		return false
	}
	s.pos[flow] = p + 1
	k := int(s.order[flow][p])
	spec.Seq = k
	spec.Generated = s.sc.Gen[flow][k]
	spec.Released = spec.Generated + s.sc.jitter(flow, k)
	spec.Proc, spec.Link = nil, nil
	if s.sc.Proc != nil && s.sc.Proc[flow] != nil {
		spec.Proc = s.sc.Proc[flow][k]
	}
	if s.sc.Link != nil && s.sc.Link[flow] != nil {
		spec.Link = s.sc.Link[flow][k]
	}
	return true
}

// streamSource is the shared chassis of the random generators: per-flow
// RNG streams derived from (seed, flow) — so the packets a flow emits
// do not depend on how pulls interleave across flows — and per-flow
// scratch buffers reused across Next calls (the engine copies samples
// it needs beyond the call).
type streamSource struct {
	fs    *model.FlowSet
	seed  int64
	limit int // packets per flow
	flows []streamFlow
	mode  int
	// sporadic parameters
	slack, procSlack model.Time
	// bursty parameter
	burst int
}

const (
	modeSporadic = iota
	modeBursty
	modeHeavyTail
)

type streamFlow struct {
	rng     *rand.Rand // from rngPool between the flow's first Next and its exhaustion
	emitted int
	nextGen model.Time
	lastRel model.Time
	proc    []model.Time
	link    []model.Time
}

// flowSeed derives flow i's RNG seed from the replication seed with a
// splitmix64 finalizer, decorrelating neighbouring (seed, flow) pairs.
func flowSeed(seed int64, flow int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(flow+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

// rngPool recycles the per-flow generators across flows and runs: a
// math/rand source is about 4.9 KB, and re-seeding one gives exactly the
// stream a fresh rand.NewSource would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

func newStreamSource(fs *model.FlowSet, seed int64, npackets, mode int) *streamSource {
	return &streamSource{fs: fs, seed: seed, limit: npackets, mode: mode, flows: make([]streamFlow, fs.N())}
}

// start seeds flow's stream. Seeding a math/rand source is costly, so
// it waits for the flow's first Next, which the engine makes on the
// worker simulating the flow's component.
func (s *streamSource) start(flow int) {
	f := s.fs.Flows[flow]
	sf := &s.flows[flow]
	sf.rng = rngPool.Get().(*rand.Rand)
	sf.rng.Seed(flowSeed(s.seed, flow))
	sf.nextGen = rndTime(sf.rng, 0, f.Period)
	sf.proc = make([]model.Time, len(f.Path))
	sf.link = make([]model.Time, len(f.Path)-1)
}

func rndTime(rng *rand.Rand, lo, hi model.Time) model.Time {
	if hi <= lo {
		return lo
	}
	return lo + model.Time(rng.Int63n(int64(hi-lo+1)))
}

// NewSporadicSource streams npackets packets per flow respecting the
// flow set's sporadic contract: gaps uniform in [T, T+slack], release
// jitter uniform in [0, J], processing times uniform in
// [max(1, C-procSlack), C], link delays uniform in [Lmin, Lmax]. It is
// the streaming counterpart of RandomScenario.
func NewSporadicSource(fs *model.FlowSet, seed int64, npackets int, slack, procSlack model.Time) ScenarioSource {
	s := newStreamSource(fs, seed, npackets, modeSporadic)
	s.slack, s.procSlack = slack, procSlack
	return s
}

// NewBurstySource streams npackets packets per flow in back-to-back
// bursts: burst packets share one generation time, bursts are spaced
// burst·T apart so the long-run rate still matches the flow's period.
// Bursts deliberately violate the sporadic separation contract — this
// is the adversarial ingress traffic that shapers (see
// diffserv.ShapedSource) exist to condition.
func NewBurstySource(fs *model.FlowSet, seed int64, npackets, burst int) ScenarioSource {
	if burst < 1 {
		burst = 1
	}
	s := newStreamSource(fs, seed, npackets, modeBursty)
	s.burst = burst
	return s
}

// NewHeavyTailSource streams npackets packets per flow with
// heavy-tailed gaps: each gap starts at the flow's period and doubles
// with probability 1/4 per stage (P[gap ≥ T·2^k] = 4^-k, a discrete
// power law with tail index 2), capped at 1024·T. Integer-only
// sampling keeps replications bit-reproducible across platforms.
func NewHeavyTailSource(fs *model.FlowSet, seed int64, npackets int) ScenarioSource {
	return newStreamSource(fs, seed, npackets, modeHeavyTail)
}

func (s *streamSource) Flows() int            { return len(s.flows) }
func (s *streamSource) TieBreak(flow int) int { return flow }

func (s *streamSource) Next(flow int, spec *PacketSpec) bool {
	sf := &s.flows[flow]
	if sf.emitted >= s.limit {
		if sf.rng != nil {
			rngPool.Put(sf.rng)
			sf.rng = nil
		}
		return false
	}
	if sf.rng == nil {
		s.start(flow)
	}
	f := s.fs.Flows[flow]
	gen := sf.nextGen
	switch s.mode {
	case modeSporadic:
		sf.nextGen = gen + f.Period + rndTime(sf.rng, 0, s.slack)
	case modeBursty:
		if (sf.emitted+1)%s.burst == 0 {
			sf.nextGen = gen + f.Period*model.Time(s.burst)
		}
	case modeHeavyTail:
		gap := f.Period
		for gap < f.Period<<10 && sf.rng.Int63n(4) == 0 {
			gap <<= 1
		}
		sf.nextGen = gen + gap
	}
	rel := gen + rndTime(sf.rng, 0, f.Jitter)
	// Jitter may reorder releases (J > T); clamp to keep the stream's
	// Released nondecreasing. The clamp stays within [gen, gen+J]
	// because the previous release was ≤ prevGen+J ≤ gen+J.
	if rel < sf.lastRel {
		rel = sf.lastRel
	}
	sf.lastRel = rel
	spec.Seq = sf.emitted
	spec.Generated = gen
	spec.Released = rel
	spec.Proc, spec.Link = nil, nil
	if s.procSlack > 0 {
		for h := range sf.proc {
			lo := f.Cost[h] - s.procSlack
			if lo < 1 {
				lo = 1
			}
			sf.proc[h] = rndTime(sf.rng, lo, f.Cost[h])
		}
		spec.Proc = sf.proc
	}
	if s.fs.Net.Lmax > s.fs.Net.Lmin {
		for h := range sf.link {
			sf.link[h] = rndTime(sf.rng, s.fs.Net.Lmin, s.fs.Net.Lmax)
		}
		spec.Link = sf.link
	}
	sf.emitted++
	return true
}
