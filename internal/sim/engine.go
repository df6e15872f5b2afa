package sim

import (
	"context"
	"sort"

	"trajan/internal/model"
)

// QueuedPacket is a packet waiting at (or being served by) a node.
type QueuedPacket struct {
	P *Packet
	// HopIndex is the position of the current node on the packet's path.
	HopIndex int
	// Arrived is the arrival time at the current node.
	Arrived model.Time
	// Class is the packet's service class (from its flow).
	Class model.Class
	// Cost is the packet's service demand at the current node (the
	// scenario's processing-time sample); schedulers that need packet
	// sizes (e.g. WFQ finish tags) read it here.
	Cost model.Time
	// fl is the calendar-queue engine's in-flight record handle (0 =
	// none): per-hop samples of packets drawn from a streaming source
	// live there instead of on the Packet. Schedulers must pass the
	// struct through unchanged, which every value copy does.
	fl int32
}

// Scheduler is a node's service discipline. The engine calls Enqueue on
// each arrival and Dequeue when the server frees; service is always
// non-preemptive (the paper's Section 6.2 assumption).
type Scheduler interface {
	Enqueue(q QueuedPacket)
	// Dequeue returns the next packet to serve and true, or false when
	// no packet is ready.
	Dequeue() (QueuedPacket, bool)
	// Len is the number of queued packets.
	Len() int
}

// Config parameterizes a simulation run.
type Config struct {
	// NewScheduler builds the scheduler of each node; nil selects the
	// paper's plain FIFO discipline everywhere. RunReplications, and a
	// run over several interference components, call the factory from
	// several goroutines, so it must be safe for concurrent use
	// (stateless factories are).
	NewScheduler func(node model.NodeID) Scheduler
	// RecordServices keeps the per-node service log needed to
	// reconstruct busy periods (Figure 2); costs memory on long runs.
	// The log is in global event order, so an engine that records it
	// simulates the whole set as one shard, on one goroutine, even when
	// the set splits into several interference components.
	RecordServices bool
	// RetainPackets keeps every delivered packet with its full
	// itinerary in Result.Packets (sorted by flow, then sequence).
	// Off by default: long runs then hold only in-flight packets —
	// delivered records are recycled and memory stays O(backlog).
	// Gantt rendering needs RecordServices; TrajectoryTrace, packet
	// CSV export and Distribution need RetainPackets.
	RetainPackets bool
	// Buffer is the per-node capacity in packets (queued plus in
	// service); an arrival at a full node is dropped and counted in
	// FlowStats.Drops / BacklogStats.Drops. 0 means unlimited — the
	// paper's lossless model, under which a run can never drop.
	Buffer int
	// BufferFor overrides Buffer per node when non-nil (return 0 for
	// unlimited).
	BufferFor func(node model.NodeID) int
	// MaxEvents caps the number of simulation events processed in one
	// run (0 = unlimited), counted across all of the run's shards.
	// Exceeding the budget aborts the run with model.ErrCanceled — a
	// defence against pathological scenarios whose event cascade would
	// otherwise run unboundedly long.
	MaxEvents int
}

// ServiceRecord is one completed service at a node.
type ServiceRecord struct {
	Node           model.NodeID
	Flow, Seq      int
	Arrived, Start model.Time
	Done           model.Time
}

// FlowStats aggregates one flow's observed behaviour.
type FlowStats struct {
	// Count is the number of delivered packets.
	Count int
	// Drops is the number of packets lost to full buffers (always 0
	// with unlimited buffers).
	Drops int
	// MaxResponse and MinResponse are the extreme observed end-to-end
	// response times; their difference is the observed jitter
	// (Definition 2 measures exactly this difference in the worst case).
	MaxResponse, MinResponse model.Time
	// WorstSeq is the sequence number of the packet attaining
	// MaxResponse.
	WorstSeq int
	// MaxSojourn[k] is the largest sojourn observed at the k-th node of
	// the flow's path.
	MaxSojourn []model.Time
}

// Jitter is the observed end-to-end jitter: MaxResponse - MinResponse.
func (s FlowStats) Jitter() model.Time {
	if s.Count == 0 {
		return 0
	}
	return s.MaxResponse - s.MinResponse
}

// BacklogStats records a node's worst observed congestion — what a
// router's queue memory must hold (RFC 2598 dimensions EF buffers by
// exactly this).
type BacklogStats struct {
	// MaxPackets is the largest number of packets simultaneously at the
	// node (queued plus in service).
	MaxPackets int
	// MaxWork is the largest backlog in work units (processing time
	// admitted but not yet completed).
	MaxWork model.Time
	// Drops is the number of arrivals refused by a full buffer.
	Drops int
}

// Result is the outcome of one simulation run.
type Result struct {
	// PerFlow[i] aggregates flow i's delivered packets.
	PerFlow []FlowStats
	// Packets holds every delivered packet with its full itinerary,
	// sorted by (flow, seq). Nil unless Config.RetainPackets.
	Packets []*Packet
	// Services is the per-node service log (nil unless
	// Config.RecordServices).
	Services []ServiceRecord
	// NodeBacklog is each node's worst observed congestion.
	NodeBacklog map[model.NodeID]BacklogStats
	// Makespan is the completion time of the last delivery.
	Makespan model.Time
}

// MaxResponses extracts the per-flow maxima as a slice aligned with the
// flow set.
func (r *Result) MaxResponses() []model.Time {
	out := make([]model.Time, len(r.PerFlow))
	for i, s := range r.PerFlow {
		out[i] = s.MaxResponse
	}
	return out
}

// TotalDrops sums the per-flow drop counts.
func (r *Result) TotalDrops() int {
	n := 0
	for _, s := range r.PerFlow {
		n += s.Drops
	}
	return n
}

// Delivered sums the per-flow delivery counts.
func (r *Result) Delivered() int {
	n := 0
	for _, s := range r.PerFlow {
		n += s.Count
	}
	return n
}

// Engine runs scenarios against a flow set.
type Engine struct {
	fs  *model.FlowSet
	cfg Config

	// Dense topology, built once: one shard per interference component
	// of the flow set (or one for the whole set, see NewEngine), each
	// with compact node and directed-link indices local to it, so the
	// hot loop never touches a map and shards share no mutable state.
	shards  []shard
	pathIdx [][]int32 // flow -> hop -> node index local to the flow's shard
	linkIdx [][]int32 // flow -> hop -> directed-link index local to the flow's shard
	// nnodes and nlinks count nodes and links over all shards: the
	// sizes of a run's flat per-node and per-link tables.
	nnodes, nlinks int
	// horizon bounds how far ahead of the current tick any dynamically
	// scheduled event can land: max over per-hop costs and Lmax. It
	// sizes the calendar queue.
	horizon model.Time
}

// shard is one independently simulated part of the flow set. A run
// keeps each per-flow, per-node and per-link table in one flat slice;
// the shard's part starts at flowLo, nodeLo and linkLo.
type shard struct {
	flows   []int32        // global flow indices, ascending
	nodeIDs []model.NodeID // local node index -> identifier
	limits  []int          // per local node: buffer capacity (0 = unlimited)
	nlinks  int
	hops    int // packet-hops per round, the work estimate shards are claimed by

	flowLo, nodeLo, linkLo int
}

// NewEngine builds a simulation engine for the flow set. Flows that
// share no node, directly or through other flows, never meet, so the
// engine splits the set into its interference components
// (model.FlowSet.Components) and simulates each as its own shard; a
// run over several shards spreads them across GOMAXPROCS workers. The
// result is bit-identical to simulating the whole set in one event
// loop: a component's event order is the global order restricted to
// it (see fast.go).
func NewEngine(fs *model.FlowSet, cfg Config) *Engine {
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = func(model.NodeID) Scheduler { return NewFIFOScheduler() }
	}
	e := &Engine{fs: fs, cfg: cfg}
	comp, nc := fs.Components()
	if cfg.RecordServices {
		// The service log is in global event order.
		nc = 1
	}
	e.shards = make([]shard, nc)
	local := make(map[model.NodeID]int32, len(fs.Nodes()))
	links := make(map[[2]model.NodeID]int32)
	e.pathIdx = make([][]int32, fs.N())
	e.linkIdx = make([][]int32, fs.N())
	e.horizon = fs.Net.Lmax
	if e.horizon < 1 {
		e.horizon = 1
	}
	for i, f := range fs.Flows {
		sd := &e.shards[0]
		if nc > 1 {
			sd = &e.shards[comp[i]]
		}
		sd.flows = append(sd.flows, int32(i))
		sd.hops += len(f.Path)
		path := make([]int32, len(f.Path))
		for s, h := range f.Path {
			ni, ok := local[h]
			if !ok {
				ni = int32(len(sd.nodeIDs))
				local[h] = ni
				sd.nodeIDs = append(sd.nodeIDs, h)
				limit := cfg.Buffer
				if cfg.BufferFor != nil {
					limit = cfg.BufferFor(h)
				}
				sd.limits = append(sd.limits, limit)
			}
			path[s] = ni
		}
		lidx := make([]int32, 0, len(f.Path)-1)
		for s := 0; s+1 < len(f.Path); s++ {
			key := [2]model.NodeID{f.Path[s], f.Path[s+1]}
			li, ok := links[key]
			if !ok {
				li = int32(sd.nlinks)
				sd.nlinks++
				links[key] = li
			}
			lidx = append(lidx, li)
		}
		e.pathIdx[i] = path
		e.linkIdx[i] = lidx
		for _, c := range f.Cost {
			if c > e.horizon {
				e.horizon = c
			}
		}
	}
	e.nnodes = len(local)
	// Workers claim the largest shards first.
	sort.SliceStable(e.shards, func(a, b int) bool { return e.shards[a].hops > e.shards[b].hops })
	var flowLo, nodeLo, linkLo int
	for s := range e.shards {
		sd := &e.shards[s]
		sd.flowLo, sd.nodeLo, sd.linkLo = flowLo, nodeLo, linkLo
		flowLo += len(sd.flows)
		nodeLo += len(sd.nodeIDs)
		linkLo += sd.nlinks
	}
	e.nlinks = linkLo
	return e
}

// Run executes one scenario to completion and returns the observations.
// The scenario must be valid for the engine's flow set.
func (e *Engine) Run(sc *Scenario) (*Result, error) {
	return e.RunContext(context.Background(), sc)
}

// RunContext is Run with cancellation: the context is polled every few
// hundred events, so a canceled context (or deadline) aborts a runaway
// simulation promptly with model.ErrCanceled. Config.MaxEvents bounds
// the run even without a context deadline.
func (e *Engine) RunContext(ctx context.Context, sc *Scenario) (*Result, error) {
	if err := sc.Validate(e.fs); err != nil {
		return nil, err
	}
	return e.runFast(ctx, sc.Source())
}

// RunSource executes the calendar-queue engine against a streaming
// packet source. Unlike Run, the engine cannot validate a stream
// upfront; sources must respect the contract documented on
// ScenarioSource (out-of-range per-hop samples abort the run with an
// error rather than corrupting the calendar). Each interference
// component runs as its own shard, on min(GOMAXPROCS, shards) workers
// (see NewEngine), so the source's Next may be called concurrently for
// flows of different components.
func (e *Engine) RunSource(ctx context.Context, src ScenarioSource) (*Result, error) {
	if src.Flows() != e.fs.N() {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"sim: source has %d flows, set has %d", src.Flows(), e.fs.N())
	}
	return e.runFast(ctx, src)
}
