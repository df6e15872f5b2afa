package sim

import (
	"container/heap"
	"context"

	"trajan/internal/model"
)

// This file is the original binary-heap event engine, kept as the
// bit-identical reference for the calendar-queue engine in fast.go:
// differential tests run both on retained-packet scenarios and require
// reflect.DeepEqual results. Keep its semantics frozen — performance
// fixes are fine (it shares the generation-stamped touch dedupe and the
// fold-at-end backlog accounting), behavioural changes are not.

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
)

type event struct {
	at   model.Time
	kind eventKind
	node model.NodeID
	q    QueuedPacket
	seq  int // global monotone sequence for deterministic ordering
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	if h[a].kind != h[b].kind {
		// Completions free servers before same-tick arrivals start service.
		return h[a].kind == evCompletion
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type nodeState struct {
	sched   Scheduler
	busy    bool
	serving QueuedPacket
	// backlog accounting: packets and work currently at the node, plus
	// the run maxima (folded into Result.NodeBacklog once at the end).
	pkts    int
	work    model.Time
	maxPkts int
	maxWork model.Time
	stamp   uint64 // tick of the node's last touch
}

type linkKey struct{ from, to model.NodeID }

// RunReference runs sc through the reference heap engine, for the
// differential tests and benchmarks that pin the calendar-queue engine
// to it; production callers use Run or RunSource, so the linker drops
// it from the binaries. It accepts only materialized Scenarios and
// lossless nodes (no Buffer).
func (e *Engine) RunReference(ctx context.Context, sc *Scenario) (*Result, error) {
	if err := sc.Validate(e.fs); err != nil {
		return nil, err
	}
	if e.cfg.Buffer != 0 {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"sim: the reference engine models lossless nodes only (no Buffer)")
	}
	nodes := make(map[model.NodeID]*nodeState)
	for _, h := range e.fs.Nodes() {
		nodes[h] = &nodeState{sched: e.cfg.NewScheduler(h)}
	}
	lastLinkArrival := make(map[linkKey]model.Time)

	res := &Result{
		PerFlow:     make([]FlowStats, e.fs.N()),
		NodeBacklog: make(map[model.NodeID]BacklogStats, len(nodes)),
	}
	for i := range res.PerFlow {
		res.PerFlow[i].MaxSojourn = make([]model.Time, len(e.fs.Flows[i].Path))
	}

	var h eventHeap
	seq := 0
	push := func(at model.Time, kind eventKind, node model.NodeID, q QueuedPacket) {
		heap.Push(&h, event{at: at, kind: kind, node: node, q: q, seq: seq})
		seq++
	}

	// Seed: release each packet at its ingress node.
	for i, f := range e.fs.Flows {
		for k, gen := range sc.Gen[i] {
			p := &Packet{
				Flow:      i,
				Seq:       k,
				Generated: gen,
				Released:  gen + sc.jitter(i, k),
				Hops:      make([]Hop, len(f.Path)),
				TieBreak:  sc.tiebreak(i),
			}
			for s, n := range f.Path {
				p.Hops[s].Node = n
			}
			if e.cfg.RetainPackets {
				res.Packets = append(res.Packets, p)
			}
			q := QueuedPacket{P: p, HopIndex: 0, Arrived: p.Released, Class: f.Class,
				Cost: sc.proc(e.fs, i, k, 0)}
			push(p.Released, evArrival, f.Path[0], q)
		}
	}

	tryStart := func(ns *nodeState, node model.NodeID, now model.Time) {
		if ns.busy {
			return
		}
		q, ok := ns.sched.Dequeue()
		if !ok {
			return
		}
		ns.busy = true
		ns.serving = q
		proc := q.Cost
		q.P.Hops[q.HopIndex].Start = now
		q.P.Hops[q.HopIndex].Done = now + proc
		push(now+proc, evCompletion, node, q)
	}

	// Process events in per-tick batches: all arrivals and completions
	// at one tick take effect before any service decision at that tick,
	// so a node chooses among every packet present — in particular the
	// scheduler's tie-break between simultaneous arrivals is honoured.
	// The per-tick dedupe is a generation stamp on each node: touching
	// a node compares one stamp instead of scanning the touched list.
	touched := make([]model.NodeID, 0, len(nodes))
	var tick uint64
	touch := func(n model.NodeID, ns *nodeState) {
		if ns.stamp != tick {
			ns.stamp = tick
			touched = append(touched, n)
		}
	}
	events := 0
	for h.Len() > 0 {
		now := h[0].at
		tick++
		touched = touched[:0]
		for h.Len() > 0 && h[0].at == now {
			events++
			if events&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, model.Errorf(model.ErrCanceled, "sim: run canceled after %d events: %v", events, err)
				}
			}
			if e.cfg.MaxEvents > 0 && events > e.cfg.MaxEvents {
				return nil, model.Errorf(model.ErrCanceled, "sim: event budget of %d exhausted", e.cfg.MaxEvents)
			}
			ev := heap.Pop(&h).(event)
			ns, ok := nodes[ev.node]
			if !ok {
				return nil, model.Errorf(model.ErrInternal, "sim: event for unknown node %d", ev.node)
			}
			touch(ev.node, ns)
			switch ev.kind {
			case evArrival:
				ev.q.P.Hops[ev.q.HopIndex].Arrived = ev.q.Arrived
				ns.sched.Enqueue(ev.q)
				ns.pkts++
				ns.work += ev.q.Cost
				if ns.pkts > ns.maxPkts {
					ns.maxPkts = ns.pkts
				}
				if ns.work > ns.maxWork {
					ns.maxWork = ns.work
				}

			case evCompletion:
				q := ev.q
				ns.busy = false
				ns.pkts--
				ns.work -= q.Cost
				f := e.fs.Flows[q.P.Flow]
				st := &res.PerFlow[q.P.Flow]
				sojourn := ev.at - q.Arrived
				if sojourn > st.MaxSojourn[q.HopIndex] {
					st.MaxSojourn[q.HopIndex] = sojourn
				}
				if e.cfg.RecordServices {
					res.Services = append(res.Services, ServiceRecord{
						Node: ev.node, Flow: q.P.Flow, Seq: q.P.Seq,
						Arrived: q.Arrived, Start: q.P.Hops[q.HopIndex].Start, Done: ev.at,
					})
				}
				if q.HopIndex == len(f.Path)-1 {
					q.P.Delivered = ev.at
					resp := q.P.Response()
					if st.Count == 0 || resp > st.MaxResponse {
						st.MaxResponse = resp
						st.WorstSeq = q.P.Seq
					}
					if st.Count == 0 || resp < st.MinResponse {
						st.MinResponse = resp
					}
					st.Count++
					if ev.at > res.Makespan {
						res.Makespan = ev.at
					}
				} else {
					next := f.Path[q.HopIndex+1]
					delay := sc.link(e.fs, q.P.Flow, q.P.Seq, q.HopIndex)
					arr := ev.at + delay
					// Links are FIFO: a packet cannot arrive before one
					// that departed earlier on the same link.
					lk := linkKey{from: ev.node, to: next}
					if prev := lastLinkArrival[lk]; arr < prev {
						arr = prev
					}
					lastLinkArrival[lk] = arr
					nq := QueuedPacket{P: q.P, HopIndex: q.HopIndex + 1, Arrived: arr, Class: q.Class,
						Cost: sc.proc(e.fs, q.P.Flow, q.P.Seq, q.HopIndex+1)}
					push(arr, evArrival, next, nq)
				}
			}
		}
		for _, n := range touched {
			tryStart(nodes[n], n, now)
		}
	}
	for id, ns := range nodes {
		if ns.maxPkts > 0 {
			res.NodeBacklog[id] = BacklogStats{MaxPackets: ns.maxPkts, MaxWork: ns.maxWork}
		}
	}
	return res, nil
}
