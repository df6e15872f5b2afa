package sim

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"trajan/internal/model"
)

// The calendar-queue engine. Same event semantics as reference.go —
// differential tests pin the two byte-identical on retained-packet
// runs — but built for throughput:
//
//   - Events live in a timing wheel instead of a binary heap. Every
//     dynamically scheduled event (service completion, next-hop
//     arrival) lands within `horizon` ticks of the current one, so a
//     power-of-two wheel wider than the horizon gives O(1) push and an
//     occupancy bitmap gives O(words) advance. Packet releases are
//     unbounded, so they come from a small per-flow merge heap over
//     the streaming source instead.
//   - Node and link state are dense slices indexed by the engine's
//     precomputed topology; the hot loop performs no map operation.
//   - Packet records and their per-hop sample buffers ("flight"
//     records) are pooled and recycled at delivery unless
//     Config.RetainPackets, so memory is O(in-flight packets).
//
// Bit-identity argument, in brief: the reference orders same-tick
// events by (kind: completions first, seq). Seed arrivals get the
// lowest seqs in flow-major order; dynamic events get seqs in push
// order, and pushes happen in event-processing order. The wheel
// reproduces exactly that by processing each tick in three phases —
// (A) wheel completions in push order, (B) source releases popped from
// a heap keyed (Released, flow) fed by per-flow streams sorted
// (Released, Seq), (C) wheel arrivals in push order, where zero-delay
// arrivals appended during phase A land after all earlier pushes.
// Service starts are order-independent across nodes (each tryStart
// touches only its own node and schedules at a strictly future tick),
// and both engines attempt them for the same touched set in
// first-touch order.
//
// Shards. Flows of different interference components share no node
// and no link, so no event of one component reads or writes state of
// another: every node, link, seed-heap entry and per-flow statistic
// belongs to exactly one component. Restricting the global event order
// to one component's events therefore yields exactly the order above
// computed on that component alone (its seed entries keep their
// relative (Released, flow) order, and its pushes their relative push
// order), so simulating each component as its own shard — own wheel,
// seed heap, node table and link table — changes no result. What is
// global merges after the shards finish: the backlog map, the makespan
// (a maximum) and the retained packets (sorted by flow and sequence).
// The service log is in global order, so Config.RecordServices keeps
// the whole set in one shard.

// maxWheelSlots bounds the wheel's footprint (a slot is two slice
// headers); a larger horizon means the time unit is too fine for the
// calendar queue and the caller should coarsen it.
const maxWheelSlots = 1 << 22

type fastNode struct {
	sched   Scheduler
	busy    bool
	serving QueuedPacket
	pkts    int
	work    model.Time
	maxPkts int
	maxWork model.Time
	drops   int
	stamp   uint64 // the shard's tick of the node's last touch
}

// wheelArr is one pending arrival: the target node and the queued
// packet. Completions need no payload at all — the serving packet is
// on the node — so they store just the node index.
type wheelArr struct {
	node int32
	q    QueuedPacket
}

type wheel struct {
	mask    model.Time
	comp    [][]int32
	arr     [][]wheelArr
	occ     []uint64
	pending int
}

// newWheel builds the smallest power-of-two wheel wider than the
// horizon. Each slot keeps the buffers it has grown, so a narrow wheel
// allocates little, which matters once a run holds one wheel per
// worker.
func newWheel(horizon model.Time) *wheel {
	n := model.Time(1)
	for n <= horizon {
		n <<= 1
	}
	w := &wheel{
		mask: n - 1,
		comp: make([][]int32, n),
		arr:  make([][]wheelArr, n),
		occ:  make([]uint64, (n+63)/64),
	}
	return w
}

// reset empties the wheel, keeping its slot buffers.
func (w *wheel) reset() {
	for i := range w.comp {
		w.comp[i] = w.comp[i][:0]
		w.arr[i] = w.arr[i][:0]
	}
	clear(w.occ)
	w.pending = 0
}

func (w *wheel) mark(slot int) {
	w.occ[slot>>6] |= 1 << uint(slot&63)
	w.pending++
}

func (w *wheel) pushComp(at model.Time, node int32) {
	slot := int(at & w.mask)
	w.comp[slot] = append(w.comp[slot], node)
	w.mark(slot)
}

func (w *wheel) pushArr(at model.Time, node int32, q QueuedPacket) {
	slot := int(at & w.mask)
	w.arr[slot] = append(w.arr[slot], wheelArr{node: node, q: q})
	w.mark(slot)
}

// next returns the earliest pending event time strictly after now. All
// pending events lie in (now, now+horizon] and the wheel is wider than
// the horizon, so the first occupied slot at or after slot(now+1)
// (cyclically) identifies a unique time.
func (w *wheel) next(now model.Time) (model.Time, bool) {
	if w.pending == 0 {
		return 0, false
	}
	start := int((now + 1) & w.mask)
	wi := start >> 6
	if word := w.occ[wi] >> uint(start&63); word != 0 {
		return now + 1 + model.Time(bits.TrailingZeros64(word)), true
	}
	nw := len(w.occ)
	for j := 1; j <= nw; j++ {
		k := wi + j
		if k >= nw {
			k -= nw
		}
		if w.occ[k] != 0 {
			slot := k<<6 + bits.TrailingZeros64(w.occ[k])
			delta := (model.Time(slot) - model.Time(start)) & w.mask
			return now + 1 + delta, true
		}
	}
	return 0, false
}

// flight holds a streamed packet's per-hop samples while it is in
// flight; records are recycled at delivery or drop. Handle 0 means "no
// record" — the packet uses the flow's worst-case defaults.
type flight struct {
	proc []model.Time
	link []model.Time
}

// seedRef is one flow's pending release in the seed merge heap,
// ordered by (Released, flow) — exactly the reference engine's order
// for seed arrivals, whose seqs are assigned flow-major.
type seedRef struct {
	rel  model.Time
	flow int32
}

type seedHeap []seedRef

func (h seedHeap) less(a, b int) bool {
	if h[a].rel != h[b].rel {
		return h[a].rel < h[b].rel
	}
	return h[a].flow < h[b].flow
}

func (h seedHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h seedHeap) siftDown(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// worker is what one goroutine of a run carries from shard to shard:
// the calendar wheel (empty between shards), the packet and flight
// pools, and what its shards deliver.
type worker struct {
	w        *wheel
	pool     []*Packet
	flights  []flight // index 0 = "no record"
	freeFl   []int32
	packets  []*Packet // retained deliveries (Config.RetainPackets)
	services []ServiceRecord
	makespan model.Time
}

// flowRun is one flow's release state in the seed merge heap: its
// look-ahead packet (whose Proc/Link stay valid until the next pull
// for that flow, per the ScenarioSource contract), the last release
// pulled, and the constants a release stamps on its packet.
type flowRun struct {
	spec     PacketSpec
	lastRel  model.Time
	tiebreak int
	class    model.Class
}

// run is the state the shards of one run share. Every table is flat
// and each shard owns a disjoint part of it (shard.flowLo, nodeLo,
// linkLo), so shards on different workers never write the same entry.
type run struct {
	ctx      context.Context
	src      ScenarioSource
	res      *Result
	maxEv    int64
	flows    []flowRun
	seeds    seedHeap
	nodes    []fastNode
	linkLast []model.Time
	touched  []int32

	// events counts the events shards have processed, in batches,
	// against Config.MaxEvents. stopAt is the tick past which every
	// shard stops: the tick of the best violation so far, or MinInt64
	// once the run is halted.
	events atomic.Int64
	stopAt atomic.Int64

	mu      sync.Mutex
	err     error // the smallest (tick, flow) source-contract violation
	errTick model.Time
	errFlow int
	halted  error // cancellation or an exhausted event budget
}

// fail records a source-contract violation met at tick on flow. A
// single event loop meets violations in (tick, flow) order, so the run
// reports the smallest; a shard past its tick can find no smaller one
// and stops.
func (r *run) fail(tick model.Time, flow int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil && (tick > r.errTick || tick == r.errTick && flow > r.errFlow) {
		return
	}
	r.err, r.errTick, r.errFlow = err, tick, flow
	if int64(tick) < r.stopAt.Load() {
		r.stopAt.Store(int64(tick))
	}
}

// halt records an error that stops every shard: cancellation or an
// exhausted event budget.
func (r *run) halt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.halted == nil {
		r.halted = err
	}
	r.stopAt.Store(math.MinInt64)
}

// spend counts n more events against the budget; false when it is
// exhausted.
func (r *run) spend(n int) bool {
	if r.maxEv > 0 && r.events.Add(int64(n)) > r.maxEv {
		r.overBudget()
		return false
	}
	return true
}

func (r *run) overBudget() {
	r.halt(model.Errorf(model.ErrCanceled, "sim: event budget of %d exhausted", r.maxEv))
}

// runFast simulates every shard of the engine and merges their
// observations. One shard, or GOMAXPROCS 1, runs inline; otherwise
// min(GOMAXPROCS, shards) workers claim shards, largest first.
//
// A run reports the smallest (tick, flow) source-contract violation
// any shard meets — the error one event loop over the whole set would
// return — or else the cancellation or budget error that halted it.
// The event budget counts events across all shards; when a run both
// exhausts it and breaks the contract, which of the two errors it
// reports can depend on how the shards were scheduled.
func (e *Engine) runFast(ctx context.Context, src ScenarioSource) (*Result, error) {
	if e.horizon >= maxWheelSlots {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"sim: horizon %d too wide for the calendar queue (max %d); coarsen the time unit or use the reference engine",
			e.horizon, maxWheelSlots-1)
	}
	nflows := e.fs.N()
	res := &Result{
		PerFlow:     make([]FlowStats, nflows),
		NodeBacklog: make(map[model.NodeID]BacklogStats, e.nnodes),
	}
	for i := range res.PerFlow {
		res.PerFlow[i].MaxSojourn = make([]model.Time, len(e.fs.Flows[i].Path))
	}
	r := &run{
		ctx: ctx, src: src, res: res, maxEv: int64(e.cfg.MaxEvents),
		flows:    make([]flowRun, nflows),
		seeds:    make(seedHeap, nflows),
		nodes:    make([]fastNode, e.nnodes),
		linkLast: make([]model.Time, e.nlinks),
		touched:  make([]int32, e.nnodes),
	}
	r.stopAt.Store(math.MaxInt64)

	wks := make([]worker, min(runtime.GOMAXPROCS(0), len(e.shards)))
	if len(wks) == 1 {
		for s := range e.shards {
			e.runShard(r, &wks[0], &e.shards[s])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := range wks {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				for {
					s := next.Add(1) - 1
					if s >= int64(len(e.shards)) {
						return
					}
					e.runShard(r, wk, &e.shards[s])
				}
			}(&wks[k])
		}
		wg.Wait()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.halted != nil {
		return nil, r.halted
	}

	// Fold per-node maxima into the result map (an entry only for
	// nodes that ever held a packet, matching the reference) and order
	// retained packets canonically.
	for _, sd := range e.shards {
		for ni, id := range sd.nodeIDs {
			if ns := &r.nodes[sd.nodeLo+ni]; ns.maxPkts > 0 {
				res.NodeBacklog[id] = BacklogStats{
					MaxPackets: ns.maxPkts, MaxWork: ns.maxWork, Drops: ns.drops,
				}
			}
		}
	}
	for k := range wks {
		wk := &wks[k]
		res.Makespan = max(res.Makespan, wk.makespan)
		if k == 0 {
			res.Packets, res.Services = wk.packets, wk.services
		} else {
			res.Packets = append(res.Packets, wk.packets...)
		}
	}
	if e.cfg.RetainPackets {
		sort.Slice(res.Packets, func(a, b int) bool {
			pa, pb := res.Packets[a], res.Packets[b]
			if pa.Flow != pb.Flow {
				return pa.Flow < pb.Flow
			}
			return pa.Seq < pb.Seq
		})
	}
	return res, nil
}

// runShard simulates one shard to completion on wk, or until the run
// stops it; failures go to r.
func (e *Engine) runShard(r *run, wk *worker, sd *shard) {
	if r.stopAt.Load() == math.MinInt64 {
		return // halted
	}
	if wk.w == nil {
		wk.w = newWheel(e.horizon)
		wk.flights = make([]flight, 1)
	} else if wk.w.pending > 0 {
		wk.w.reset() // the previous shard stopped early
	}
	w := wk.w
	res, src := r.res, r.src
	nflows := len(sd.flows)
	nodes := r.nodes[sd.nodeLo : sd.nodeLo+len(sd.nodeIDs)]
	for i, id := range sd.nodeIDs {
		nodes[i].sched = e.cfg.NewScheduler(id)
	}
	linkLast := r.linkLast[sd.linkLo : sd.linkLo+sd.nlinks]
	// The hot loop keeps the worker's state in locals (no pointer
	// chase, no stores next to another worker's fields) and hands it
	// back when the shard ends.
	pool, flights, freeFl := wk.pool, wk.flights, wk.freeFl
	packets, services, makespan := wk.packets, wk.services, wk.makespan
	defer func() {
		wk.pool, wk.flights, wk.freeFl = pool, flights, freeFl
		wk.packets, wk.services, wk.makespan = packets, services, makespan
	}()

	// Pools: packets and flight records cycle between the free lists
	// and the network, so steady-state allocation is zero.
	getPacket := func() *Packet {
		if n := len(pool); n > 0 {
			p := pool[n-1]
			pool = pool[:n-1]
			return p
		}
		return &Packet{}
	}
	newFlight := func(proc, link []model.Time) int32 {
		var fl int32
		if n := len(freeFl); n > 0 {
			fl = freeFl[n-1]
			freeFl = freeFl[:n-1]
		} else {
			flights = append(flights, flight{})
			fl = int32(len(flights) - 1)
		}
		f := &flights[fl]
		f.proc = append(f.proc[:0], proc...)
		f.link = append(f.link[:0], link...)
		return fl
	}
	releaseFlight := func(fl int32) {
		if fl != 0 {
			freeFl = append(freeFl, fl)
		}
	}
	procAt := func(flow int, fl int32, s int) model.Time {
		if fl != 0 {
			if p := flights[fl].proc; len(p) > 0 {
				return p[s]
			}
		}
		return e.fs.Flows[flow].Cost[s]
	}
	linkAt := func(fl int32, s int) model.Time {
		if fl != 0 {
			if l := flights[fl].link; len(l) > 0 {
				return l[s]
			}
		}
		return e.fs.Net.Lmax
	}

	// Seed merge heap: one pending release per flow, keyed by the
	// shard-local flow index (ascending in the global one). Each
	// flow's first pull happens here, on the shard's worker.
	frs := r.flows[sd.flowLo : sd.flowLo+nflows]
	sh := r.seeds[sd.flowLo : sd.flowLo : sd.flowLo+nflows]
	for lf, f := range sd.flows {
		fr := &frs[lf]
		fr.class = e.fs.Flows[f].Class
		fr.tiebreak = src.TieBreak(int(f))
		fr.lastRel = math.MinInt64
		if src.Next(int(f), &fr.spec) {
			fr.lastRel = fr.spec.Released
			sh = append(sh, seedRef{rel: fr.spec.Released, flow: int32(lf)})
			sh.siftUp(len(sh) - 1)
		}
	}

	touched := r.touched[sd.nodeLo : sd.nodeLo : sd.nodeLo+len(nodes)]
	var tick uint64
	touch := func(ni int32) {
		if ns := &nodes[ni]; ns.stamp != tick {
			ns.stamp = tick
			touched = append(touched, ni)
		}
	}

	var now model.Time
	events := 0
	countEvent := func() bool {
		events++
		if events&1023 == 0 {
			if err := r.ctx.Err(); err != nil {
				r.halt(model.Errorf(model.ErrCanceled, "sim: run canceled after %d events: %v", events, err))
				return false
			}
			if !r.spend(1024) || int64(now) > r.stopAt.Load() {
				return false
			}
		}
		if r.maxEv > 0 && int64(events) > r.maxEv {
			r.overBudget()
			return false
		}
		return true
	}
	fail := func(f int, format string, args ...any) {
		r.fail(now, f, model.Errorf(model.ErrInvalidConfig, format, args...))
	}

	arrive := func(ni int32, q QueuedPacket) {
		ns := &nodes[ni]
		if lim := sd.limits[ni]; lim > 0 && ns.pkts >= lim {
			res.PerFlow[q.P.Flow].Drops++
			ns.drops++
			releaseFlight(q.fl)
			pool = append(pool, q.P)
			return
		}
		q.P.Hops[q.HopIndex].Arrived = q.Arrived
		ns.sched.Enqueue(q)
		ns.pkts++
		ns.work += q.Cost
		if ns.pkts > ns.maxPkts {
			ns.maxPkts = ns.pkts
		}
		if ns.work > ns.maxWork {
			ns.maxWork = ns.work
		}
	}

	tryStart := func(ni int32) {
		ns := &nodes[ni]
		if ns.busy {
			return
		}
		q, ok := ns.sched.Dequeue()
		if !ok {
			return
		}
		ns.busy = true
		ns.serving = q
		q.P.Hops[q.HopIndex].Start = now
		q.P.Hops[q.HopIndex].Done = now + q.Cost
		w.pushComp(now+q.Cost, ni)
	}

	for {
		// Advance to the earliest pending tick across the wheel and
		// the seed heap. When both have one, the wheel's is within the
		// horizon, so a seed tick beyond it never skips wheel work.
		switch {
		case w.pending > 0 && len(sh) > 0:
			wn, _ := w.next(now)
			if st := sh[0].rel; st < wn {
				now = st
			} else {
				now = wn
			}
		case w.pending > 0:
			now, _ = w.next(now)
		case len(sh) > 0:
			now = sh[0].rel
		default:
			// Drained: settle the events not yet counted.
			r.spend(events & 1023)
			return
		}
		tick++
		touched = touched[:0]
		slot := int(now & w.mask)

		// Phase A: completions. tryStart pushes only at future ticks,
		// so the list is complete; zero-delay forwards appended to
		// this slot's arrival list are handled in phase C.
		for ci := 0; ci < len(w.comp[slot]); ci++ {
			if !countEvent() {
				return
			}
			ni := w.comp[slot][ci]
			touch(ni)
			ns := &nodes[ni]
			q := ns.serving
			ns.busy = false
			ns.pkts--
			ns.work -= q.Cost
			flow := q.P.Flow
			st := &res.PerFlow[flow]
			if sojourn := now - q.Arrived; sojourn > st.MaxSojourn[q.HopIndex] {
				st.MaxSojourn[q.HopIndex] = sojourn
			}
			if e.cfg.RecordServices {
				services = append(services, ServiceRecord{
					Node: sd.nodeIDs[ni], Flow: flow, Seq: q.P.Seq,
					Arrived: q.Arrived, Start: q.P.Hops[q.HopIndex].Start, Done: now,
				})
			}
			path := e.pathIdx[flow]
			if q.HopIndex == len(path)-1 {
				q.P.Delivered = now
				resp := q.P.Response()
				if st.Count == 0 || resp > st.MaxResponse {
					st.MaxResponse = resp
					st.WorstSeq = q.P.Seq
				}
				if st.Count == 0 || resp < st.MinResponse {
					st.MinResponse = resp
				}
				st.Count++
				if now > makespan {
					makespan = now
				}
				releaseFlight(q.fl)
				if e.cfg.RetainPackets {
					packets = append(packets, q.P)
				} else {
					pool = append(pool, q.P)
				}
			} else {
				s := q.HopIndex
				delay := linkAt(q.fl, s)
				arr := now + delay
				// Links are FIFO: a packet cannot arrive before one
				// that departed earlier on the same link. The clamp
				// stays within the horizon because the earlier
				// arrival was pushed no later than now.
				li := e.linkIdx[flow][s]
				if prev := linkLast[li]; arr < prev {
					arr = prev
				}
				linkLast[li] = arr
				cost := procAt(flow, q.fl, s+1)
				nq := QueuedPacket{P: q.P, HopIndex: s + 1, Arrived: arr,
					Class: q.Class, Cost: cost, fl: q.fl}
				w.pushArr(arr, path[s+1], nq)
			}
		}

		// Phase B: packet releases due now, popped in (Released, flow)
		// order; each pop pulls the flow's next packet into the heap.
		for len(sh) > 0 && sh[0].rel == now {
			if !countEvent() {
				return
			}
			fr := &frs[sh[0].flow]
			f := int(sd.flows[sh[0].flow])
			spec := &fr.spec
			path := e.pathIdx[f]
			hops := len(path)
			var fl int32
			cost0 := e.fs.Flows[f].Cost[0]
			if spec.Proc != nil || spec.Link != nil {
				if spec.Proc != nil && len(spec.Proc) != hops {
					fail(f, "sim: source gave flow %d packet %d %d proc times for %d nodes", f, spec.Seq, len(spec.Proc), hops)
					return
				}
				if spec.Link != nil && len(spec.Link) != hops-1 {
					fail(f, "sim: source gave flow %d packet %d %d link delays for %d links", f, spec.Seq, len(spec.Link), hops-1)
					return
				}
				for s, c := range spec.Proc {
					if c < 1 || c > e.horizon {
						fail(f, "sim: source proc sample %d (flow %d packet %d hop %d) outside [1,%d]", c, f, spec.Seq, s, e.horizon)
						return
					}
				}
				for s, d := range spec.Link {
					if d < 0 || d > e.horizon {
						fail(f, "sim: source link sample %d (flow %d packet %d hop %d) outside [0,%d]", d, f, spec.Seq, s, e.horizon)
						return
					}
				}
				fl = newFlight(spec.Proc, spec.Link)
				if spec.Proc != nil {
					cost0 = spec.Proc[0]
				}
			}
			p := getPacket()
			p.Flow, p.Seq = f, spec.Seq
			p.Generated, p.Released = spec.Generated, spec.Released
			p.Delivered = 0
			p.TieBreak = fr.tiebreak
			if cap(p.Hops) < hops {
				p.Hops = make([]Hop, hops)
			} else {
				p.Hops = p.Hops[:hops]
			}
			for s := range p.Hops {
				p.Hops[s] = Hop{Node: sd.nodeIDs[path[s]]}
			}
			ni := path[0]
			touch(ni)
			arrive(ni, QueuedPacket{P: p, HopIndex: 0, Arrived: p.Released,
				Class: fr.class, Cost: cost0, fl: fl})
			if src.Next(f, spec) {
				if spec.Released < fr.lastRel {
					fail(f, "sim: source released flow %d packet %d at %d after releasing %d", f, spec.Seq, spec.Released, fr.lastRel)
					return
				}
				fr.lastRel = spec.Released
				sh[0].rel = spec.Released
				sh.siftDown(0)
			} else {
				n := len(sh) - 1
				sh[0] = sh[n]
				sh = sh[:n]
				sh.siftDown(0)
			}
		}

		// Phase C: arrivals, in push order (zero-delay forwards from
		// phase A come last, as in the reference's seq order).
		for ai := 0; ai < len(w.arr[slot]); ai++ {
			if !countEvent() {
				return
			}
			ev := w.arr[slot][ai]
			touch(ev.node)
			arrive(ev.node, ev.q)
		}

		for _, ni := range touched {
			tryStart(ni)
		}
		w.pending -= len(w.comp[slot]) + len(w.arr[slot])
		w.comp[slot] = w.comp[slot][:0]
		w.arr[slot] = w.arr[slot][:0]
		w.occ[slot>>6] &^= 1 << uint(slot&63)
	}
}
