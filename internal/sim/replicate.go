package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trajan/internal/model"
)

// Replicated is the outcome of a batch of independent replications.
type Replicated struct {
	// Reps[r] is replication r's full result, identical to what a
	// serial RunSource with the same source would produce.
	Reps []*Result
	// Merged aggregates the replications (see MergeResults); its
	// Packets and Services are nil — per-replication logs stay in Reps.
	Merged *Result
}

// RunReplications runs n independent replications of the calendar-queue
// engine across a worker pool and merges their statistics. source(r)
// builds replication r's packet source — typically a streaming
// generator seeded by r — and is called from worker goroutines, so it
// must not share mutable state across calls. Results are deterministic
// for any worker count: replication r's result depends only on
// source(r), and merging happens serially in replication order.
// workers ≤ 0 selects GOMAXPROCS.
//
// Errors are deterministic too: the batch reports the lowest-indexed
// replication that fails. A failure at r stops the claiming of
// replications above r and cancels those running, while the ones below
// r run to completion, since one of them may fail as well.
func (e *Engine) RunReplications(ctx context.Context, n, workers int, source func(rep int) ScenarioSource) (*Replicated, error) {
	if n <= 0 {
		return nil, model.Errorf(model.ErrInvalidConfig, "sim: replication count %d not positive", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	reps := make([]*Result, n)
	cancels := make([]context.CancelFunc, n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		failed   = n // lowest failing replication so far
		firstErr error
		wg       sync.WaitGroup
	)
	// claim hands out the next replication below the lowest failure,
	// with a context its own failure can cancel.
	claim := func() (int, context.Context) {
		r := int(next.Add(1)) - 1
		mu.Lock()
		defer mu.Unlock()
		if r >= failed {
			return -1, nil
		}
		rctx, cancel := context.WithCancel(ctx)
		cancels[r] = cancel
		return r, rctx
	}
	finish := func(r int, err error) {
		mu.Lock()
		defer mu.Unlock()
		cancels[r]()
		cancels[r] = nil
		if err == nil || r >= failed {
			return
		}
		failed, firstErr = r, fmt.Errorf("sim: replication %d: %w", r, err)
		for k := r + 1; k < n; k++ {
			if cancels[k] != nil {
				cancels[k]()
			}
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, rctx := claim()
				if r < 0 {
					return
				}
				res, err := e.RunSource(rctx, source(r))
				reps[r] = res
				finish(r, err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &Replicated{Reps: reps, Merged: MergeResults(reps)}, nil
}

// MergeResults folds replication results into one aggregate, in slice
// order (so the merge is deterministic): delivery and drop counts sum,
// response extremes and per-hop sojourn maxima combine, per-node
// backlog maxima take the worst replication and drops sum, and the
// makespan is the longest. WorstSeq refers to the first replication
// attaining the merged MaxResponse. Packets and Services are not
// merged.
func MergeResults(reps []*Result) *Result {
	if len(reps) == 0 {
		return &Result{NodeBacklog: map[model.NodeID]BacklogStats{}}
	}
	m := &Result{
		PerFlow:     make([]FlowStats, len(reps[0].PerFlow)),
		NodeBacklog: make(map[model.NodeID]BacklogStats),
	}
	for i := range m.PerFlow {
		m.PerFlow[i].MaxSojourn = make([]model.Time, len(reps[0].PerFlow[i].MaxSojourn))
	}
	for _, r := range reps {
		for i := range r.PerFlow {
			s, ms := &r.PerFlow[i], &m.PerFlow[i]
			ms.Drops += s.Drops
			for h, sj := range s.MaxSojourn {
				if sj > ms.MaxSojourn[h] {
					ms.MaxSojourn[h] = sj
				}
			}
			if s.Count == 0 {
				continue
			}
			if ms.Count == 0 || s.MaxResponse > ms.MaxResponse {
				ms.MaxResponse = s.MaxResponse
				ms.WorstSeq = s.WorstSeq
			}
			if ms.Count == 0 || s.MinResponse < ms.MinResponse {
				ms.MinResponse = s.MinResponse
			}
			ms.Count += s.Count
		}
		for id, b := range r.NodeBacklog {
			mb := m.NodeBacklog[id]
			if b.MaxPackets > mb.MaxPackets {
				mb.MaxPackets = b.MaxPackets
			}
			if b.MaxWork > mb.MaxWork {
				mb.MaxWork = b.MaxWork
			}
			mb.Drops += b.Drops
			m.NodeBacklog[id] = mb
		}
		if r.Makespan > m.Makespan {
			m.Makespan = r.Makespan
		}
	}
	return m
}
