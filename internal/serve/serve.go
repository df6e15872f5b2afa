// Package serve is the online admission-control service: a
// long-running, concurrency-safe serving layer over one warm-start
// trajectory.Analyzer. It is the deployment shape the paper's
// Property 3 motivates for the Expedited Forwarding class — per-flow
// state lives only at the admission controller, core routers stay
// stateless FIFO — and the natural consumer of the delta re-analysis
// engine: each admit/release/renegotiate decision costs one warm
// mutation of the running flow set, not a cold rebuild.
//
// Architecture (see docs/SERVING.md):
//
//   - A single-writer mutation loop owns one feasibility.Controller,
//     the admission core. Admit, release and renegotiate requests are
//     serialized through a bounded channel; the core decides each one
//     (warm re-analysis, undone on a deadline miss or divergence), and
//     the loop makes a committed decision durable in the journal before
//     publishing it. A full queue pushes back immediately (HTTP 429 +
//     Retry-After) instead of letting latency grow without bound.
//   - Read paths (/v1/bounds, /v1/flows, /healthz) never touch the
//     Analyzer: they serve from an immutable Snapshot swapped atomically
//     after every committed mutation, so any number of readers run
//     concurrently with the writer, race-free.
//   - What-if probes are coalesced: concurrent /v1/whatif requests
//     queue while a batch is in flight and are drained into one
//     Analyzer.WhatIf call, so N concurrent probes cost one wave of
//     copy-on-write forks (parallel up to Options.Parallelism) instead
//     of N cold analyses.
//   - Graceful shutdown first refuses new requests (503), then drains
//     every decision already enqueued, then stops the loop. No request
//     that was accepted is ever dropped without a reply.
//
// Decisions and bounds are bit-identical to a cold analysis of the
// resulting flow set; the oracle parity tests in serve_test.go and
// route_test.go enforce this.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// ErrUnknownFlow marks release/renegotiate/what-if targets that name no
// admitted flow; the HTTP layer maps it to 404.
var ErrUnknownFlow = feasibility.ErrUnknownFlow

// ErrShuttingDown is returned (and mapped to 503) once Shutdown has
// begun: no new requests are accepted, queued ones still drain.
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrBackpressure is returned (and mapped to 429 + Retry-After) when
// the bounded request queue is full.
var ErrBackpressure = errors.New("serve: queue full")

// ErrBodyTooLarge is returned (and mapped to 413) for a request body
// over the 1 MiB limit.
var ErrBodyTooLarge = errors.New("serve: request body too large")

// Config parameterizes a Server.
type Config struct {
	// Network is the link-delay envelope all admitted flows share.
	Network model.Network
	// Options configures the underlying Analyzer. Options.Tracer
	// receives every engine event plus the admission decisions
	// (obs.EvAdmission, Op the operation, emitted once durable) and HTTP
	// request outcomes (obs.EvServeRequest). Options.Parallelism bounds
	// the per-batch what-if fan-out.
	Options trajectory.Options
	// Preload installs flows at startup without an admission test (the
	// already-contracted set, or a lower-class background). New fails if
	// the preloaded set is invalid or its analysis errors.
	Preload []*model.Flow
	// QueueDepth bounds the mutation queue and the what-if queue
	// (each); a full queue answers 429. Zero selects 64.
	QueueDepth int
	// RequestTimeout is the per-decision analysis budget: a mutation
	// whose re-analysis exceeds it is undone and answered 504, and a
	// what-if batch is cut off with timeout outcomes. Zero disables the
	// budget. What-if batches use this budget from batch start — it is
	// deliberately not tied to any single client's context, because one
	// batch serves many clients.
	RequestTimeout time.Duration
	// Metrics, when non-nil, is mounted at /metrics (Prometheus text)
	// and /vars (JSON) on Handler's mux and gains a
	// trajan_serve_queue_depth gauge. Pass the same registry inside
	// Options.Tracer (via obs.Tee) to also fold engine events into it.
	Metrics *obs.Metrics
	// Tenant names the tenant this server instance serves in a
	// multi-tenant deployment. It labels every emitted event (and thus
	// every trajan_* metric series); empty keeps the single-tenant
	// series names unchanged.
	Tenant string
	// Journal, when non-nil, makes decisions durable: the mutation loop
	// appends one record per committed admit/release/renegotiate —
	// fsynced — before the snapshot swap that makes the decision
	// visible. A journal failure refuses the mutation, latches, and
	// every subsequent mutation is refused too (fail-stop; see
	// OnJournalFailure). The Server owns neither Open nor Close.
	Journal *journal.Journal
	// CheckpointEvery writes a full flow-set checkpoint after that many
	// committed mutations, bounding replay length. 0 selects 64;
	// negative disables checkpoints.
	CheckpointEvery int
	// OnJournalFailure, when non-nil, is called at most once, from the
	// mutation loop, when a journal append or checkpoint fails — the
	// hook the daemon uses to begin shutdown and exit nonzero rather
	// than keep serving with a diverged log.
	OnJournalFailure func(error)
	// OnPanic, when non-nil, is called at most once, from the mutation
	// loop goroutine, after a panic in a mutation or what-if batch has
	// quarantined the server: new requests are refused, queued ones are
	// failed, readers keep the last published snapshot. The tenant
	// registry uses it to restart the tenant from its journal.
	OnPanic func(recovered any)
	// Topology, when non-nil, is the network graph the daemon serves:
	// manual-path admit/renegotiate requests are validated edge by edge
	// against it (a request whose path uses a nonexistent link is a 400,
	// not an analysis of links that do not exist), and route=auto
	// requests enumerate their candidate paths over it. Nil keeps the
	// topology-oblivious behavior: paths are taken at face value and
	// route=auto is refused.
	Topology *model.Topology
	// RouteK bounds the candidate-path fan-out of route=auto admissions.
	// Zero selects feasibility.DefaultRouteK.
	RouteK int
	// Backend selects which analysis backend every admission verdict
	// and published snapshot is judged on (docs/BACKENDS.md). Empty or
	// "trajectory" keeps the warm incremental Analyzer path; any other
	// backend re-analyses the committed set through
	// feasibility.AnalyzeBackend on every verdict — equally sound, but
	// each decision is a cold analysis, so mutation cost tracks set
	// size, not change size. The warm Analyzer still powers what-if
	// batches and delta mechanics either way.
	Backend feasibility.Backend
	// restoreSeq, when > 0, seeds the snapshot sequence of a server
	// rehydrated from a journal: the initial publish carries restoreSeq
	// (not 1), so post-recovery sequence numbers continue the pre-crash
	// ones. Set by the registry; zero for fresh servers.
	restoreSeq int64
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery == 0 {
		return 64
	}
	return c.CheckpointEvery
}

// Snapshot is the immutable published state of the admitted flow set:
// what the concurrent read paths serve. A snapshot is never mutated
// after Store; readers may hold it indefinitely.
type Snapshot struct {
	// Seq counts committed mutations (preload is seq 1 when present).
	Seq int64
	// FS is the admitted flow set, empty (never nil) when no flow is
	// admitted. The set is copy-on-write — later mutations build new
	// sets — so this reference stays valid and immutable.
	FS *model.FlowSet
	// Bounds[i] is the worst-case end-to-end response-time bound of
	// FS.Flows[i] under the committed set.
	Bounds []model.Time
	// AllFeasible reports whether every flow with a deadline meets it.
	AllFeasible bool
	// MinSlack is the tightest deadline slack (TimeInfinity when no
	// flow has a deadline).
	MinSlack model.Time
}

// N returns the number of admitted flows.
func (s *Snapshot) N() int {
	if s == nil {
		return 0
	}
	return s.FS.N()
}

// decision is the mutation loop's reply to one admit/release/
// renegotiate request: the admission core's decision plus the request
// error and the snapshot in force after it.
type decision struct {
	feasibility.Decision
	Err  error // invalid request, unknown flow, timeout, internal
	Snap *Snapshot
}

// mutation is one serialized write request.
type mutation struct {
	op    string // "admit" | "release" | "renegotiate"
	flow  *model.Flow
	name  string
	route bool // route=auto: pick the path, ignore the submitted interior
	ctx   context.Context
	reply chan decision
}

// whatifReq is one /v1/whatif request: a list of hypothetical
// mutations to probe against the current set. Concurrent requests are
// coalesced into one Analyzer.WhatIf batch.
type whatifReq struct {
	cands []whatifCand
	reply chan whatifReply
}

// whatifCand is one probe, name-addressed (indexes are resolved
// against the committed set at batch time, under the writer).
type whatifCand struct {
	op   string // "add" | "remove" | "update"
	flow *model.Flow
	name string
}

// whatifProbe is one resolved probe outcome.
type whatifProbe struct {
	Op     string
	Target string
	// Names/Deadlines describe the hypothetical set the bounds below
	// index into.
	Names       []string
	Deadlines   []model.Time
	Bounds      []model.Time
	AllFeasible bool
	MinSlack    model.Time
	Err         error
}

type whatifReply struct {
	probes []whatifProbe
	snap   *Snapshot
	err    error
}

// Server is the admission-control service core. Create with New, mount
// Handler on an HTTP server (e.g. via StartHTTP), stop with Shutdown.
type Server struct {
	cfg Config
	opt trajectory.Options

	mutCh chan *mutation
	wifCh chan *whatifReq

	snap atomic.Pointer[Snapshot]

	mu     sync.RWMutex // serializes enqueue against shutdown
	closed bool
	quit   chan struct{}
	done   chan struct{}
}

// New validates the configuration, runs the preload analysis
// synchronously (so a misconfigured daemon fails at startup, not on
// first request), and starts the mutation loop.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:   cfg,
		opt:   cfg.Options,
		mutCh: make(chan *mutation, cfg.queueDepth()),
		wifCh: make(chan *whatifReq, cfg.queueDepth()),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c, err := feasibility.NewController(cfg.Network, cfg.Options, cfg.Backend, cfg.Topology, cfg.RouteK)
	if err != nil {
		return nil, err
	}
	st := &loopState{s: s, c: c}
	if cfg.restoreSeq > 0 {
		// Rehydrated server: the initial publish below carries the
		// recovered sequence, so readers observe a seamless continuation.
		st.seq = cfg.restoreSeq - 1
	}
	flows := make([]*model.Flow, len(cfg.Preload))
	for i, f := range cfg.Preload {
		flows[i] = f.Clone()
	}
	fs, err := model.NewFlowSet(cfg.Network, flows)
	if err != nil {
		return nil, err
	}
	c.Restore(fs)
	d, err := c.Judge(context.Background())
	if err != nil {
		return nil, err
	}
	st.publish(&d)
	if j := cfg.Journal; j != nil && j.NextSeq() == 0 {
		// Fresh journal: anchor it with a checkpoint of the initial
		// snapshot (seq 1 — empty or preloaded), so the first mutation's
		// record (seq 2) continues a contiguous durable sequence.
		if err := j.WriteCheckpoint(checkpointOf(cfg.Network, s.snap.Load())); err != nil {
			return nil, model.Errorf(model.ErrInternal, "serve: initial checkpoint: %w", err)
		}
	}
	if m := cfg.Metrics; m != nil {
		name := "trajan_serve_queue_depth"
		if cfg.Tenant != "" {
			name = fmt.Sprintf("trajan_serve_queue_depth{tenant=%q}", cfg.Tenant)
		}
		m.GaugeFunc(name, func() int64 {
			return int64(len(s.mutCh) + len(s.wifCh))
		})
	}
	go s.loop(st)
	return s, nil
}

// Snapshot returns the current published state.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Shutdown stops the server gracefully: new requests are refused
// immediately, every already-accepted request is drained to a reply,
// then the mutation loop exits. It returns ctx.Err() if the drain
// outlives the context (the loop still finishes draining in the
// background — accepted requests are never dropped).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enqueueMutation hands one write request to the loop. The bounded
// non-blocking send is the backpressure point.
func (s *Server) enqueueMutation(m *mutation) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	select {
	case s.mutCh <- m:
		return nil
	default:
		return ErrBackpressure
	}
}

func (s *Server) enqueueWhatIf(w *whatifReq) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	select {
	case s.wifCh <- w:
		return nil
	default:
		return ErrBackpressure
	}
}

// loop is the single writer: it owns the Analyzer, so every Analyzer
// method call in the process happens on this goroutine (what-if
// batches parallelize internally over copy-on-write forks, which is
// the Analyzer's own contract). On shutdown it drains both queues —
// the enqueue/closed handshake guarantees every accepted request is
// already buffered — and replies to each before exiting.
//
// A panic anywhere in a mutation or what-if batch does not unwind past
// the loop: the in-flight request is answered with an internal error,
// the server quarantines itself (see abort), and the loop exits. The
// process survives; in a multi-tenant registry only this tenant stops
// accepting writes until it is restarted from its journal.
func (s *Server) loop(st *loopState) {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.drainQueues(st)
			return
		case m := <-s.mutCh:
			if p := st.deliverMutation(m); p != nil {
				s.abort(p)
				return
			}
		case w := <-s.wifCh:
			if p := st.safeWhatIfBatch(s.gatherWhatIf(w)); p != nil {
				s.abort(p)
				return
			}
		}
	}
}

// deliverMutation runs one mutation with panic containment and always
// replies, so no client blocks on a crashed loop.
func (st *loopState) deliverMutation(m *mutation) (panicked any) {
	d := decision{}
	defer func() {
		if r := recover(); r != nil {
			panicked = r
			d = decision{
				Err:  model.Errorf(model.ErrInternal, "serve: mutation loop panicked: %v", r),
				Snap: st.s.snap.Load(),
			}
		}
		select {
		case m.reply <- d:
		default:
		}
	}()
	d = st.handleMutation(m)
	return nil
}

// safeWhatIfBatch runs one coalesced what-if batch with panic
// containment; on panic every request in the batch gets an error reply.
func (st *loopState) safeWhatIfBatch(batch []*whatifReq) (panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
			err := model.Errorf(model.ErrInternal, "serve: what-if batch panicked: %v", r)
			sn := st.s.snap.Load()
			for _, w := range batch {
				select {
				case w.reply <- whatifReply{err: err, snap: sn}:
				default:
				}
			}
		}
	}()
	st.handleWhatIfBatch(batch)
	return nil
}

// abort quarantines the server after a panic in the mutation loop: the
// analyzer's in-memory state can no longer be trusted, so new requests
// are refused, everything already queued is failed, and OnPanic is
// invoked. Readers keep serving the last published snapshot — which is
// immutable and was swapped in atomically strictly before the panic —
// so concurrent /v1/bounds and /healthz never observe partial state.
func (s *Server) abort(p any) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.mu.Unlock()
	s.failQueues(model.Errorf(model.ErrInternal, "serve: quarantined after panic: %v", p))
	if fn := s.cfg.OnPanic; fn != nil {
		fn(p)
	}
}

// failQueues answers everything queued with err — used when the
// analyzer state is unusable and running the requests is not an option.
func (s *Server) failQueues(err error) {
	for {
		select {
		case m := <-s.mutCh:
			select {
			case m.reply <- decision{Err: err, Snap: s.snap.Load()}:
			default:
			}
		case w := <-s.wifCh:
			select {
			case w.reply <- whatifReply{err: err, snap: s.snap.Load()}:
			default:
			}
		default:
			return
		}
	}
}

// gatherWhatIf drains every queued what-if request behind the first
// one: the coalescing step. All of them are answered by one WhatIf
// batch on the analyzer.
func (s *Server) gatherWhatIf(first *whatifReq) []*whatifReq {
	batch := []*whatifReq{first}
	for {
		select {
		case w := <-s.wifCh:
			batch = append(batch, w)
		default:
			return batch
		}
	}
}

func (s *Server) drainQueues(st *loopState) {
	for {
		select {
		case m := <-s.mutCh:
			if p := st.deliverMutation(m); p != nil {
				// Panic during the shutdown drain: the server is already
				// stopping, so just fail what's left instead of restarting.
				s.failQueues(model.Errorf(model.ErrInternal, "serve: quarantined after panic: %v", p))
				return
			}
		case w := <-s.wifCh:
			if p := st.safeWhatIfBatch(s.gatherWhatIf(w)); p != nil {
				s.failQueues(model.Errorf(model.ErrInternal, "serve: quarantined after panic: %v", p))
				return
			}
		default:
			return
		}
	}
}

// loopState is the mutation loop's private state. Only the loop
// goroutine touches it.
type loopState struct {
	s         *Server
	c         *feasibility.Controller
	seq       int64
	sinceCkpt int  // committed mutations since the last checkpoint
	jreported bool // OnJournalFailure already fired
}

// journalFailed reports (and wraps) a latched journal error, so every
// mutation after a durability failure is refused instead of silently
// diverging from the log.
func (st *loopState) journalFailed() error {
	j := st.s.cfg.Journal
	if j == nil {
		return nil
	}
	if err := j.Err(); err != nil {
		return model.Errorf(model.ErrInternal, "serve: journal failed: %w", err)
	}
	return nil
}

// journalCommit makes one committed decision durable — append + fsync
// — strictly before its snapshot is published. The record's sequence is
// the snapshot sequence the decision will publish (st.seq+1) and its
// flow the contract as committed (the chosen path of a route=auto
// decision). On failure the core is restored to the still-published
// pre-decision set, OnJournalFailure fires once, and the latched
// journal refuses all further mutations.
func (st *loopState) journalCommit(d *feasibility.Decision) error {
	j := st.s.cfg.Journal
	if j == nil {
		return nil
	}
	rec := journal.Record{Seq: st.seq + 1, Op: d.Op}
	if d.Op == "release" {
		rec.Name = d.Flow
	} else {
		cfg := model.ConfigOfFlow(st.c.FlowSet().Flows[st.c.Index(d.Flow)])
		rec.Flow = &cfg
	}
	if err := j.Append(rec); err != nil {
		st.c.Restore(st.s.snap.Load().FS)
		st.reportJournalFailure(err)
		return model.Errorf(model.ErrInternal, "serve: journal append: %w", err)
	}
	st.sinceCkpt++
	return nil
}

func (st *loopState) reportJournalFailure(err error) {
	if fn := st.s.cfg.OnJournalFailure; fn != nil && !st.jreported {
		st.jreported = true
		fn(err)
	}
}

// maybeCheckpoint writes a flow-set checkpoint from the just-published
// snapshot once CheckpointEvery mutations have committed since the last
// one, bounding recovery replay length. A checkpoint failure latches
// the journal (the triggering mutation was already durable and stays
// committed) and fires OnJournalFailure.
func (st *loopState) maybeCheckpoint() {
	j := st.s.cfg.Journal
	every := st.s.cfg.checkpointEvery()
	if j == nil || every <= 0 || st.sinceCkpt < every {
		return
	}
	st.sinceCkpt = 0
	if err := j.WriteCheckpoint(checkpointOf(st.s.cfg.Network, st.s.snap.Load())); err != nil {
		st.reportJournalFailure(err)
	}
}

// checkpointOf converts a published snapshot to its durable form.
func checkpointOf(net model.Network, sn *Snapshot) journal.Checkpoint {
	cp := journal.Checkpoint{
		Seq:     sn.Seq,
		Network: model.NetworkConfig{Lmin: net.Lmin, Lmax: net.Lmax},
	}
	for _, f := range sn.FS.Flows {
		cp.Flows = append(cp.Flows, model.ConfigOfFlow(f))
	}
	return cp
}

// publish swaps in a new immutable snapshot of the committed set with
// the verdict d.
func (st *loopState) publish(d *feasibility.Decision) *Snapshot {
	st.seq++
	sn := &Snapshot{
		Seq:         st.seq,
		FS:          st.c.FlowSet(),
		Bounds:      d.Bounds,
		AllFeasible: d.AllFeasible,
		MinSlack:    d.MinSlack,
	}
	st.s.snap.Store(sn)
	return sn
}

// handleMutation runs one decision through the admission core and
// wraps a committed one with durability and visibility: journal append
// before snapshot publish, then the periodic checkpoint. Refusals and
// errors commit nothing and leave the published snapshot in force.
func (st *loopState) handleMutation(m *mutation) decision {
	if err := st.journalFailed(); err != nil {
		return decision{Err: err, Snap: st.s.snap.Load()}
	}
	var d feasibility.Decision
	var err error
	switch m.op {
	case "admit":
		d, err = st.c.Admit(m.ctx, m.flow, m.route)
	case "release":
		d, err = st.c.Release(m.ctx, m.name)
	case "renegotiate":
		d, err = st.c.Renegotiate(m.ctx, m.flow, m.route)
	default:
		err = model.Errorf(model.ErrInternal, "serve: unknown mutation op %q", m.op)
	}
	if d.Outcome == "" || d.Outcome == "rejected" {
		if err == nil {
			d.Emit(st.s.opt.Tracer, st.s.cfg.Tenant)
		}
		return decision{Decision: d, Err: err, Snap: st.s.snap.Load()}
	}
	if jerr := st.journalCommit(&d); jerr != nil {
		return decision{Err: jerr, Snap: st.s.snap.Load()}
	}
	if err != nil {
		// A release committed but its re-analysis failed (a shrunk set
		// cannot diverge, so this is a timeout or a bug). Publish a
		// conservative infeasible snapshot so readers see the new set
		// rather than the stale one.
		st.publish(&feasibility.Decision{})
		st.maybeCheckpoint()
		return decision{Err: err, Snap: st.s.snap.Load()}
	}
	d.Emit(st.s.opt.Tracer, st.s.cfg.Tenant)
	out := decision{Decision: d, Snap: st.publish(&d)}
	st.maybeCheckpoint()
	return out
}

// handleWhatIfBatch answers a coalesced set of what-if requests with
// one Analyzer.WhatIf call: indexes are resolved name→index under the
// writer, all candidates across all requests are concatenated into a
// single batch of copy-on-write forks, and the outcomes are sliced
// back to their requests. The batch runs under one RequestTimeout
// budget from batch start.
func (st *loopState) handleWhatIfBatch(batch []*whatifReq) {
	ctx := context.Background()
	if d := st.s.cfg.RequestTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	a, err := st.c.Analyzer()
	if err != nil {
		sn := st.s.snap.Load()
		for _, w := range batch {
			w.reply <- whatifReply{err: err, snap: sn}
		}
		return
	}

	// Resolve every candidate against the committed set. Unresolvable
	// candidates (unknown names) fail individually without poisoning
	// the batch.
	type slot struct {
		probe *whatifProbe // reply destination
		cand  trajectory.Candidate
	}
	var slots []slot
	replies := make([][]whatifProbe, len(batch))
	for b, w := range batch {
		replies[b] = make([]whatifProbe, len(w.cands))
		for k, c := range w.cands {
			p := &replies[b][k]
			p.Op, p.Target = c.op, c.name
			if c.flow != nil {
				p.Target = c.flow.Name
			}
			switch c.op {
			case "add":
				slots = append(slots, slot{p, trajectory.Candidate{Add: c.flow}})
			case "remove":
				i := st.c.Index(c.name)
				if i < 0 {
					p.Err = model.Errorf(model.ErrInvalidConfig, "%w %q", ErrUnknownFlow, c.name)
					continue
				}
				slots = append(slots, slot{p, trajectory.Candidate{Remove: true, Index: i}})
			case "update":
				i := st.c.Index(c.flow.Name)
				if i < 0 {
					p.Err = model.Errorf(model.ErrInvalidConfig, "%w %q", ErrUnknownFlow, c.flow.Name)
					continue
				}
				slots = append(slots, slot{p, trajectory.Candidate{Update: c.flow, Index: i}})
			default:
				p.Err = model.Errorf(model.ErrInvalidConfig, "serve: what-if op %q (want add|remove|update)", c.op)
			}
		}
	}

	if len(slots) > 0 {
		cands := make([]trajectory.Candidate, len(slots))
		for x := range slots {
			cands[x] = slots[x].cand
		}
		outcomes := a.WhatIfContext(ctx, cands)
		for x := range slots {
			op, target := slots[x].probe.Op, slots[x].probe.Target
			*slots[x].probe = st.probeFromOutcome(&slots[x].cand, outcomes[x])
			slots[x].probe.Op, slots[x].probe.Target = op, target
		}
	}

	sn := st.s.snap.Load()
	for b, w := range batch {
		w.reply <- whatifReply{probes: replies[b], snap: sn}
	}
}

// probeFromOutcome converts one WhatIf outcome into the wire probe:
// the hypothetical set's flow names, bounds and feasibility verdict.
func (st *loopState) probeFromOutcome(c *trajectory.Candidate, o trajectory.WhatIfOutcome) whatifProbe {
	var p whatifProbe
	if o.Err != nil {
		p.Err = o.Err
		return p
	}
	fillProbe(&p, st.hypotheticalSet(c), o.Bounds)
	return p
}

// hypotheticalSet reconstructs the flow metadata a candidate's Bounds
// index into, without re-deriving the set itself: adds append, removes
// shift down, updates replace in place — the same index contract as the
// Analyzer mutations.
func (st *loopState) hypotheticalSet(c *trajectory.Candidate) []*model.Flow {
	base := st.c.FlowSet().Flows
	switch {
	case c.Add != nil:
		out := make([]*model.Flow, 0, len(base)+1)
		out = append(out, base...)
		return append(out, c.Add)
	case c.Update != nil:
		out := append([]*model.Flow(nil), base...)
		out[c.Index] = c.Update
		return out
	case c.Remove:
		out := make([]*model.Flow, 0, len(base)-1)
		out = append(out, base[:c.Index]...)
		return append(out, base[c.Index+1:]...)
	}
	return base
}

// fillProbe completes a probe from the hypothetical set's flow
// metadata and its analysed bounds.
func fillProbe(p *whatifProbe, flows []*model.Flow, bounds []model.Time) {
	p.Names = make([]string, len(flows))
	p.Deadlines = make([]model.Time, len(flows))
	p.Bounds = bounds
	for i, f := range flows {
		p.Names[i] = f.Name
		p.Deadlines[i] = f.Deadline
	}
	p.AllFeasible, p.MinSlack = feasibility.SetVerdict(flows, bounds)
}
