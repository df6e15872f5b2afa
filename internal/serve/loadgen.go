package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"trajan/internal/model"
)

// Trace is the churn-trace schema shared with `cmd/trajan -admit`
// (testdata/churn.json): a network and an ordered event log of flow
// arrivals, departures and contract renegotiations.
type Trace struct {
	Network model.NetworkConfig `json:"network"`
	Events  []TraceEvent        `json:"events"`
}

// TraceEvent is one trace entry. Op is "add" (Flow required), "remove"
// (Name required) or "update" (Flow required; matched by its name).
type TraceEvent struct {
	Op   string            `json:"op"`
	Name string            `json:"name,omitempty"`
	Flow *model.FlowConfig `json:"flow,omitempty"`
}

// LoadTrace reads and strictly decodes a churn trace file.
func LoadTrace(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, model.Classify(model.ErrInvalidConfig, err)
	}
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, model.Errorf(model.ErrInvalidConfig, "loadgen: decoding trace: %w", err)
	}
	return &t, nil
}

// LoadgenConfig drives RunLoadgen.
type LoadgenConfig struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Trace is the event sequence each client replays.
	Trace *Trace
	// Clients is the number of concurrent replaying clients (default 1).
	Clients int
	// Repeat is how many times each client replays the trace (default 1).
	Repeat int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Tenants, when non-empty, runs the loadgen multi-tenant: client c
	// replays against /v1/{Tenants[c mod len(Tenants)]}/... so the churn
	// spreads across tenants, and the final health of every tenant is
	// captured in LoadgenStats.FinalTenants. Empty replays the
	// single-tenant (default-alias) routes.
	Tenants []string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// LoadgenStats aggregates a loadgen run. Counters are written with
// atomics so a caller may inspect them while the run is in flight.
type LoadgenStats struct {
	Requests    atomic.Int64 // HTTP requests issued (including retries)
	Admitted    atomic.Int64
	Rejected    atomic.Int64
	Released    atomic.Int64
	Retries     atomic.Int64 // 429 responses retried after Retry-After
	Probes      atomic.Int64 // whatif + bounds reads
	Errors      atomic.Int64 // non-2xx other than 429
	Elapsed     time.Duration
	FinalStatus HealthResponse
	// FinalTenants maps tenant name to its final health; populated only
	// in multi-tenant runs (LoadgenConfig.Tenants non-empty).
	FinalTenants map[string]HealthResponse
}

// rewriteName namespaces a trace flow name per client and repeat so
// concurrent replays of the same trace never collide in the admitted
// set.
func rewriteName(name string, client, repeat int) string {
	return fmt.Sprintf("%s#c%dr%d", name, client, repeat)
}

// RunLoadgen replays cfg.Trace against a running service from
// cfg.Clients concurrent clients, each cfg.Repeat times. Every "add"
// is preceded by a what-if probe of the same flow and followed by a
// bounds read, exercising the coalesced read paths alongside the
// mutation loop; flow names are namespaced per client so replays are
// independent. 429 backpressure responses are retried under capped
// exponential backoff with deterministic jitter, honoring the server's
// advertised Retry-After. On return all flows the run admitted have
// been released.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenStats, error) {
	if cfg.Trace == nil || len(cfg.Trace.Events) == 0 {
		return nil, model.Errorf(model.ErrInvalidConfig, "loadgen: empty trace")
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 1
	}
	repeat := cfg.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	hc := cfg.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	// Close the pooled connections on return: net/http's graceful
	// shutdown waits up to five seconds for a connection the transport
	// dialed but never sent a request on, which would stall the
	// daemon's drain after a run.
	defer hc.CloseIdleConnections()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	stats := &LoadgenStats{}
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc := newLoadClient(cfg, hc, stats, ctx, c)
			for r := 0; r < repeat; r++ {
				if err := lc.replay(cfg.Trace, c, r); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	select {
	case err := <-errc:
		return stats, err
	default:
	}
	lc := newLoadClient(cfg, hc, stats, ctx, 0)
	if err := lc.getJSON("/healthz", &stats.FinalStatus); err != nil {
		return stats, err
	}
	if len(cfg.Tenants) > 0 {
		stats.FinalTenants = make(map[string]HealthResponse, len(cfg.Tenants))
		for _, tenant := range cfg.Tenants {
			var h HealthResponse
			if err := lc.getJSON("/v1/"+tenant+"/healthz", &h); err != nil {
				return stats, err
			}
			stats.FinalTenants[tenant] = h
		}
	}
	logf("loadgen: %d requests in %v (%d admitted, %d rejected, %d retries, %d errors)",
		stats.Requests.Load(), stats.Elapsed.Round(time.Millisecond),
		stats.Admitted.Load(), stats.Rejected.Load(), stats.Retries.Load(), stats.Errors.Load())
	return stats, nil
}

// loadClient is one replaying client.
type loadClient struct {
	base  string
	api   string // route prefix: "/v1" or "/v1/{tenant}"
	hc    *http.Client
	stats *LoadgenStats
	ctx   context.Context
	// rng is the deterministic jitter state, seeded by the client index
	// so concurrent clients desynchronize without shared state and a
	// rerun backs off identically.
	rng uint64
}

// newLoadClient builds client c's replayer: in multi-tenant runs the
// client is pinned to one tenant round-robin.
func newLoadClient(cfg LoadgenConfig, hc *http.Client, stats *LoadgenStats, ctx context.Context, c int) *loadClient {
	lc := &loadClient{base: cfg.BaseURL, api: "/v1", hc: hc, stats: stats, ctx: ctx, rng: splitmix64(uint64(c) + 1)}
	if len(cfg.Tenants) > 0 {
		lc.api = "/v1/" + cfg.Tenants[c%len(cfg.Tenants)]
	}
	return lc
}

// splitmix64 spreads a small seed over the whole state space so nearby
// client indexes don't produce correlated jitter streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// replay walks the trace once, namespacing flow names with (c, r), and
// releases whatever survived at the end.
func (lc *loadClient) replay(t *Trace, c, r int) error {
	live := make(map[string]bool)
	for _, ev := range t.Events {
		if err := lc.ctx.Err(); err != nil {
			return model.Errorf(model.ErrCanceled, "loadgen: %w", err)
		}
		switch ev.Op {
		case "add":
			fc := rewriteFlow(ev.Flow, c, r)
			// Probe first: one more candidate for the coalescer.
			var wres WhatIfResponse
			if err := lc.postJSON(lc.api+"/whatif",
				WhatIfRequest{Candidates: []WhatIfCandidate{{Op: "add", Flow: fc}}}, &wres); err != nil {
				return err
			}
			lc.stats.Probes.Add(1)
			var dres DecisionResponse
			if err := lc.postJSON(lc.api+"/admit", AdmitRequest{Flow: fc}, &dres); err != nil {
				return err
			}
			switch dres.Decision {
			case "admitted":
				lc.stats.Admitted.Add(1)
				live[fc.Name] = true
			default:
				lc.stats.Rejected.Add(1)
			}
			var bres BoundsResponse
			if err := lc.getJSON(lc.api+"/bounds", &bres); err != nil {
				return err
			}
			lc.stats.Probes.Add(1)
		case "remove":
			name := rewriteName(ev.Name, c, r)
			if !live[name] {
				continue // its add was rejected
			}
			var dres DecisionResponse
			if err := lc.postJSON(lc.api+"/release", ReleaseRequest{Name: name}, &dres); err != nil {
				return err
			}
			lc.stats.Released.Add(1)
			delete(live, name)
		case "update":
			fc := rewriteFlow(ev.Flow, c, r)
			if !live[fc.Name] {
				continue
			}
			var dres DecisionResponse
			if err := lc.postJSON(lc.api+"/renegotiate", AdmitRequest{Flow: fc}, &dres); err != nil {
				return err
			}
		default:
			return model.Errorf(model.ErrInvalidConfig, "loadgen: unknown op %q", ev.Op)
		}
	}
	// Leave the set as we found it.
	for name := range live {
		var dres DecisionResponse
		if err := lc.postJSON(lc.api+"/release", ReleaseRequest{Name: name}, &dres); err != nil {
			return err
		}
		lc.stats.Released.Add(1)
	}
	return nil
}

// rewriteFlow clones a flow config with its name namespaced.
func rewriteFlow(fc *model.FlowConfig, c, r int) *model.FlowConfig {
	if fc == nil {
		return nil
	}
	out := *fc
	out.Name = rewriteName(fc.Name, c, r)
	return &out
}

// maxBackpressureRetries bounds 429 retry loops so a stuck server
// fails the run instead of hanging it.
const maxBackpressureRetries = 50

// Backoff policy for 429 responses: exponential from backoffBase,
// jittered, never shorter than the server's advertised Retry-After,
// and hard-capped at backoffCap so a long Retry-After cannot park a
// client for the rest of the run.
const (
	backoffBase = 5 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
)

// backoff computes the attempt-th retry delay:
//
//	min(max(base·2^attempt + jitter, retryAfter), cap)
//
// The jitter is drawn from the client's deterministic splitmix64
// stream and spans half the exponential term, decorrelating clients
// that were rejected by the same full queue without losing
// reproducibility.
func (lc *loadClient) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if attempt > 20 {
		attempt = 20 // 2^20·base is already far beyond the cap
	}
	d := backoffBase << uint(attempt)
	if d <= 0 || d > backoffCap {
		d = backoffCap
	}
	lc.rng = splitmix64(lc.rng)
	d += time.Duration(lc.rng % uint64(d/2+1))
	if retryAfter > d {
		d = retryAfter
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d
}

// parseRetryAfter reads a delay-seconds Retry-After value; malformed
// or HTTP-date forms fall back to zero (the backoff floor applies).
func parseRetryAfter(h string) time.Duration {
	var secs int
	if _, err := fmt.Sscanf(h, "%d", &secs); err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func (lc *loadClient) postJSON(path string, body, into any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return model.Classify(model.ErrInternal, err)
	}
	return lc.do(http.MethodPost, path, raw, into)
}

func (lc *loadClient) getJSON(path string, into any) error {
	return lc.do(http.MethodGet, path, nil, into)
}

// do issues one request, retrying 429 backpressure under the jittered
// exponential policy above.
func (lc *loadClient) do(method, path string, body []byte, into any) error {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(lc.ctx, method, lc.base+path, rd)
		if err != nil {
			return model.Classify(model.ErrInternal, err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		lc.stats.Requests.Add(1)
		resp, err := lc.hc.Do(req)
		if err != nil {
			return model.Classify(model.ErrInternal, err)
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if err != nil {
			return model.Classify(model.ErrInternal, err)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && attempt < maxBackpressureRetries:
			lc.stats.Retries.Add(1)
			delay := lc.backoff(attempt, parseRetryAfter(resp.Header.Get("Retry-After")))
			select {
			case <-time.After(delay):
			case <-lc.ctx.Done():
				return model.Errorf(model.ErrCanceled, "loadgen: %w", lc.ctx.Err())
			}
			continue
		case resp.StatusCode >= 300:
			lc.stats.Errors.Add(1)
			return model.Errorf(model.ErrInternal, "loadgen: %s %s: HTTP %d: %s",
				method, path, resp.StatusCode, bytes.TrimSpace(payload))
		}
		if into == nil {
			return nil
		}
		if err := json.Unmarshal(payload, into); err != nil {
			return model.Errorf(model.ErrInternal, "loadgen: %s %s: decoding response: %w", method, path, err)
		}
		return nil
	}
}
