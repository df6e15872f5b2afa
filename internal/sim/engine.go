package sim

import (
	"context"

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
	// paper's plain FIFO discipline everywhere. RunReplications calls
	// the factory from several goroutines, so it must be safe for
	// concurrent use (stateless factories are).
	NewScheduler func(node model.NodeID) Scheduler
	// RecordServices keeps the per-node service log needed to
	// reconstruct busy periods (Figure 2); costs memory on long runs.
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
	// run (0 = unlimited). Exceeding the budget aborts the run with
	// model.ErrCanceled — a defence against pathological scenarios whose
	// event cascade would otherwise run unboundedly long.
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

	// Dense topology, built once: node identifiers mapped to compact
	// indices, per-flow paths and directed links pre-resolved so the
	// hot loop never touches a map.
	nodeIDs []model.NodeID
	nodeIdx map[model.NodeID]int32
	pathIdx [][]int32 // flow -> hop -> dense node index
	linkIdx [][]int32 // flow -> hop -> dense directed-link index
	nlinks  int
	limits  []int // per dense node: buffer capacity (0 = unlimited)
	// horizon bounds how far ahead of the current tick any dynamically
	// scheduled event can land: max over per-hop costs and Lmax. It
	// sizes the calendar queue.
	horizon model.Time
}

// NewEngine builds a simulation engine for the flow set.
func NewEngine(fs *model.FlowSet, cfg Config) *Engine {
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = func(model.NodeID) Scheduler { return NewFIFOScheduler() }
	}
	e := &Engine{fs: fs, cfg: cfg}
	e.nodeIDs = fs.Nodes()
	e.nodeIdx = make(map[model.NodeID]int32, len(e.nodeIDs))
	for i, id := range e.nodeIDs {
		e.nodeIdx[id] = int32(i)
	}
	e.limits = make([]int, len(e.nodeIDs))
	for i, id := range e.nodeIDs {
		if cfg.BufferFor != nil {
			e.limits[i] = cfg.BufferFor(id)
		} else {
			e.limits[i] = cfg.Buffer
		}
	}
	links := make(map[[2]int32]int32)
	e.pathIdx = make([][]int32, fs.N())
	e.linkIdx = make([][]int32, fs.N())
	e.horizon = fs.Net.Lmax
	if e.horizon < 1 {
		e.horizon = 1
	}
	for i, f := range fs.Flows {
		path := make([]int32, len(f.Path))
		for s, h := range f.Path {
			path[s] = e.nodeIdx[h]
		}
		lidx := make([]int32, 0, len(f.Path)-1)
		for s := 0; s+1 < len(f.Path); s++ {
			key := [2]int32{path[s], path[s+1]}
			li, ok := links[key]
			if !ok {
				li = int32(len(links))
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
	e.nlinks = len(links)
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
// error rather than corrupting the calendar).
func (e *Engine) RunSource(ctx context.Context, src ScenarioSource) (*Result, error) {
	if src.Flows() != e.fs.N() {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"sim: source has %d flows, set has %d", src.Flows(), e.fs.N())
	}
	return e.runFast(ctx, src)
}
