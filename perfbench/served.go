package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
)

// servedSpec describes one served workload.
type servedSpec struct {
	name string
	// journaled serves through a journaled serve.Registry (fsync before
	// ack, default checkpoints); otherwise through an in-memory
	// serve.Server.
	journaled bool
	// Fabric size: spines x leaves x hosts per leaf.
	spines, leaves, hosts int
	gen                   genParams
}

var admitDurable = servedSpec{
	name: "admit-durable", journaled: true,
	spines: 4, leaves: 8, hosts: 4,
	gen: genParams{
		window: 32, renegFrac: 0.3,
		costLo: 1, costHi: 3, periodLo: 150, periodHi: 300, deadlineLo: 80, deadlineHi: 110,
	},
}

var routeAuto = servedSpec{
	name:   "route-auto",
	spines: 4, leaves: 8, hosts: 4,
	gen: genParams{
		window: 32, renegFrac: 0.3,
		costLo: 1, costHi: 3, periodLo: 150, periodHi: 300, deadlineLo: 80, deadlineHi: 110,
		auto: true,
	},
}

func runAdmitDurable(ctx context.Context, cfg runConfig) (*result, error) {
	return runServed(ctx, cfg, admitDurable)
}

func runRouteAuto(ctx context.Context, cfg runConfig) (*result, error) {
	return runServed(ctx, cfg, routeAuto)
}

// network is the link-delay envelope of cmd/trajand's defaults
// (-lmin 1 -lmax 1).
var network = model.Network{Lmin: 1, Lmax: 1}

// daemonOptions is cmd/trajand's default analyzer configuration:
// prefix-fixpoint Smax, -workers 0 (GOMAXPROCS), and the daemon's
// metrics registry as the engine tracer.
func daemonOptions(tracer obs.Tracer) trajectory.Options {
	return trajectory.Options{Smax: trajectory.SmaxPrefixFixpoint, Parallelism: 0, Tracer: tracer}
}

// servedEnv is one running service: the serving core behind a loopback
// HTTP listener, configured as cmd/trajand configures it by default.
type servedEnv struct {
	metrics    *obs.Metrics
	base       string
	journalDir string // the default tenant's journal ("" when in memory)
	stopHTTP   func(time.Duration) error
	shutdown   func(context.Context) error
	jfail      chan error
	stopped    bool
}

func startServed(spec servedSpec, fab *fabric, dir string) (*servedEnv, error) {
	metrics := obs.NewMetrics()
	metrics.GaugeFunc("trajan_scratch_pool_news", trajectory.ScratchPoolNews)
	cfg := serve.Config{
		Network:        network,
		Options:        daemonOptions(obs.Tee(metrics)),
		RequestTimeout: 5 * time.Second,
		Metrics:        metrics,
		Topology:       fab.topo,
	}
	env := &servedEnv{metrics: metrics, jfail: make(chan error, 1)}
	var handler http.Handler
	if spec.journaled {
		reg, err := serve.NewRegistry(serve.RegistryConfig{
			Template:   cfg,
			JournalDir: dir,
			OnJournalFailure: func(tenant string, err error) {
				select {
				case env.jfail <- fmt.Errorf("tenant %s: journal failed: %w", tenant, err):
				default:
				}
			},
		})
		if err != nil {
			return nil, err
		}
		handler, env.shutdown = reg.Handler(), reg.Close
		env.journalDir = filepath.Join(dir, "default")
	} else {
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		handler, env.shutdown = srv.Handler(), srv.Shutdown
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = env.shutdown(context.Background())
		return nil, err
	}
	env.stopHTTP = serve.StartHTTP(ln, handler, func(string, ...any) {})
	env.base = "http://" + ln.Addr().String()
	return env, nil
}

// stop drains HTTP, then the decision loops; it is idempotent.
func (env *servedEnv) stop() error {
	if env.stopped {
		return nil
	}
	env.stopped = true
	herr := env.stopHTTP(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(herr, env.shutdown(ctx))
}

// logEntry is one served request, kept for the traced replay.
type logEntry struct {
	kind    string // "admit" | "release" | "renegotiate" | "whatif"
	body    []byte // request body as sent
	auto    bool
	outcome string // the decision; "" for probes and failed requests
	seq     int64  // snapshot sequence in the response
	order   int    // client-local order, for a stable merge
	client  int
	// setup and timed mark requests of the set-up and the timed phase;
	// sent and answered are the client's clock around the exchange.
	setup, timed   bool
	sent, answered time.Time
}

// benchClient is one closed-loop client: it sends its next request
// only after the previous one answered, over one keep-alive connection.
type benchClient struct {
	id    int
	base  string
	tr    *http.Transport
	hc    *http.Client
	gen   *flowGen
	setup bool // filling the window while no other client runs
	timed bool

	decisions, probes []float64 // latencies in ms, timed phase only
	attempted, failed int64     // timed phase only
	requests, retries int64     // HTTP requests incl. 429 retries, timed phase only
	admits, refused   int       // admit decisions and refusals among them, timed phase only
	routes            routeStats
	errs              []string
	// log keeps the first logCap requests for the traced replay.
	log    []logEntry
	logCap int
}

func newBenchClient(id int, base string, gen *flowGen) *benchClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &benchClient{id: id, base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, gen: gen}
}

const maxRetries = 50

// routeStats describes the route=auto decisions of the timed phase
// from their answers: how often the first candidate (the spine-0 path,
// first in k-shortest order) could not take the flow and how often the
// committed path is another one.
type routeStats struct {
	decided         int // route=auto decisions that listed candidates
	firstInfeasible int // ... whose first candidate was not feasible
	rerouted        int // ... committed on a candidate other than the first
	noRoute         int // ... refused because no candidate was feasible
}

func (rs *routeStats) add(cands []serve.RouteCandidateVerdict) {
	if len(cands) == 0 {
		return
	}
	rs.decided++
	if cands[0].Decision != "feasible" {
		rs.firstInfeasible++
	}
	chosen := -1
	for i, v := range cands {
		if v.Chosen {
			chosen = i
		}
	}
	switch {
	case chosen < 0:
		rs.noRoute++
	case chosen > 0:
		rs.rerouted++
	}
}

func (rs *routeStats) merge(o routeStats) {
	rs.decided += o.decided
	rs.firstInfeasible += o.firstInfeasible
	rs.rerouted += o.rerouted
	rs.noRoute += o.noRoute
}

// call sends one request, retrying 429 backpressure, and returns the
// whole exchange's latency and when it was sent. It counts the request
// as attempted and, if it ended non-2xx, as failed.
func (c *benchClient) call(ctx context.Context, method, path string, body []byte, into any) (float64, time.Time, error) {
	start := time.Now()
	err := c.exchange(ctx, method, path, body, into)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if c.timed {
		c.attempted++
		if err != nil {
			c.failed++
		}
	}
	if err != nil && len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
	return ms, start, err
}

func (c *benchClient) exchange(ctx context.Context, method, path string, body []byte, into any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.timed {
			c.requests++
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			if c.timed {
				c.retries++
			}
			delay := min(5*time.Millisecond<<min(attempt, 7), 500*time.Millisecond)
			select {
			case <-time.After(delay + time.Duration(c.id)*time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(payload))
		}
		if into == nil {
			return nil
		}
		return json.Unmarshal(payload, into)
	}
}

// record logs one answered request, sent at sent and taking ms.
func (c *benchClient) record(e logEntry, sent time.Time, ms float64) {
	if len(c.log) < c.logCap {
		e.order, e.client, e.setup, e.timed = len(c.log), c.id, c.setup, c.timed
		e.sent, e.answered = sent, sent.Add(time.Duration(ms*1e6))
		c.log = append(c.log, e)
	}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return raw
}

func routeQuery(auto bool) string {
	if auto {
		return "?route=auto"
	}
	return ""
}

// decide sends one admit, release or renegotiate request, times it
// and logs it for the replay; it returns the decision.
func (c *benchClient) decide(ctx context.Context, kind string, body []byte, auto bool) (string, error) {
	var dres serve.DecisionResponse
	ms, sent, err := c.call(ctx, http.MethodPost, "/v1/"+kind+routeQuery(auto), body, &dres)
	if err != nil {
		return "", err
	}
	if c.timed {
		c.decisions = append(c.decisions, ms)
		c.routes.add(dres.RouteCandidates)
	}
	c.record(logEntry{kind: kind, body: body, auto: auto, outcome: dres.Decision, seq: dres.Seq}, sent, ms)
	return dres.Decision, nil
}

// arrive admits a fresh flow; with probe it is first probed with a
// what-if and followed by a bounds read, as an admission client would.
func (c *benchClient) arrive(ctx context.Context, probe bool) error {
	fc := c.gen.flow()
	if probe {
		body := mustJSON(serve.WhatIfRequest{Candidates: []serve.WhatIfCandidate{{Op: "add", Flow: &fc}}})
		var wres serve.WhatIfResponse
		ms, sent, err := c.call(ctx, http.MethodPost, "/v1/whatif", body, &wres)
		if err != nil {
			return err
		}
		if c.timed {
			c.probes = append(c.probes, ms)
		}
		c.record(logEntry{kind: "whatif", body: body, seq: wres.Seq}, sent, ms)
	}
	decision, err := c.decide(ctx, "admit", mustJSON(serve.AdmitRequest{Flow: &fc}), c.gen.p.auto)
	if err != nil {
		return err
	}
	c.gen.arrived(fc, decision == "admitted")
	if c.timed {
		c.admits++
		if decision == "rejected" {
			c.refused++
		}
	}
	if probe {
		var bres serve.BoundsResponse
		if _, _, err := c.call(ctx, http.MethodGet, "/v1/bounds", nil, &bres); err != nil {
			return err
		}
	}
	return nil
}

func (c *benchClient) release(ctx context.Context, name string) error {
	if _, err := c.decide(ctx, "release", mustJSON(serve.ReleaseRequest{Name: name}), false); err != nil {
		return err
	}
	c.gen.released(name)
	return nil
}

func (c *benchClient) renegotiate(ctx context.Context, name string) error {
	fc := c.gen.renegotiated(name)
	decision, err := c.decide(ctx, "renegotiate", mustJSON(serve.AdmitRequest{Flow: &fc}), c.gen.p.auto)
	if err != nil {
		return err
	}
	if decision == "renegotiated" {
		c.gen.renegotiatedTo(fc)
	}
	return nil
}

func (c *benchClient) step(ctx context.Context) error {
	switch kind, name := c.gen.step(); kind {
	case stepRenegotiate:
		return c.renegotiate(ctx, name)
	case stepRelease:
		return c.release(ctx, name)
	default:
		return c.arrive(ctx, true)
	}
}

// loop runs closed-loop steps until the deadline. A failed request is
// counted and the client carries on.
func (c *benchClient) loop(ctx context.Context, until time.Time) {
	for ctx.Err() == nil && time.Now().Before(until) {
		_ = c.step(ctx) // counted in c.failed, reported in c.errs
	}
}

// clientCount is the closed loop's width: two clients, but never more
// client goroutines (and connections) than the machine has CPUs.
func clientCount() int { return min(2, runtime.NumCPU()) }

// servedSetup is one set-up service plus the clients that filled it.
type servedSetup struct {
	env     *servedEnv
	clients []*benchClient
}

// setupServed starts the service and fills each client's arrival
// window: the resident set.
func setupServed(ctx context.Context, spec servedSpec, fab *fabric, seed int64, dir string, logCap int) (*servedSetup, error) {
	env, err := startServed(spec, fab, dir)
	if err != nil {
		return nil, err
	}
	st := &servedSetup{env: env}
	for id := 0; id < clientCount(); id++ {
		c := newBenchClient(id, env.base, newFlowGen(spec.gen, fab, seed, id))
		c.logCap, c.setup = logCap, true
		st.clients = append(st.clients, c)
		for k := 0; k < spec.gen.window; k++ {
			if err := c.arrive(ctx, false); err != nil {
				_ = st.close() // the set-up error is the one to report
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		c.setup = false
	}
	return st, nil
}

func (st *servedSetup) close() error {
	for _, c := range st.clients {
		c.tr.CloseIdleConnections()
	}
	return st.env.stop()
}

// runServed sets the service up setups times (keeping the last),
// runs the closed loop for cfg.seconds, checks the served state, and
// either reports the end-to-end metrics or replays the run layer by
// layer.
func runServed(ctx context.Context, cfg runConfig, spec servedSpec) (*result, error) {
	fab, err := newFabric(spec.spines, spec.leaves, spec.hosts, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	// Only a traced run replays the log, and it replays a bounded prefix.
	logCap := 0
	if cfg.trace {
		logCap = 4 * maxReplayed
	}
	var st *servedSetup
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(cfg.dir, spec.name+"-journal-"+strconv.Itoa(k))
		runtime.GC() // as in offline-verify: each set-up starts from a collected heap
		start := time.Now()
		st, err = setupServed(ctx, spec, fab, cfg.seed, dir, logCap)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer st.close()

	// Warm up untimed, then measure.
	warm := min(cfg.seconds/10, time.Second)
	runClients(ctx, st.clients, time.Now().Add(warm))
	for _, c := range st.clients {
		c.timed = true
	}
	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	runClients(ctx, st.clients, start.Add(cfg.seconds))
	elapsed := time.Since(start).Seconds()
	heapPeak := heap.stop()
	for _, c := range st.clients {
		c.timed = false
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := newResult()
	var decisions, probes []float64
	var requests, retries int64
	for _, c := range st.clients {
		decisions = append(decisions, c.decisions...)
		probes = append(probes, c.probes...)
		res.attempted += c.attempted
		res.failed += c.failed
		requests += c.requests
		retries += c.retries
		for _, e := range c.errs {
			fmt.Fprintf(cfg.log, "  request error (client %d): %s\n", c.id, e)
		}
	}
	w := cfg.log
	fmt.Fprintf(w, "  closed loop: %d clients, %d connections, %.3fs timed\n", len(st.clients), len(st.clients), elapsed)
	timing(w, "setup_s", setupTimes, "s", 99)
	timing(w, "decision_ms", decisions, "ms", 99)
	timing(w, "probe_ms", probes, "ms", 99)
	line(w, "decisions_per_s", float64(len(decisions))/elapsed, "1/s", len(decisions))
	line(w, "failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", int(res.attempted))
	line(w, "retries_429_per_1k", 1000*float64(retries)/float64(max(requests, 1)), "per_1k", int(requests))
	line(w, "heap_peak_mb", heapPeak, "MB", 1)

	refused, admits := 0, 0
	var routes routeStats
	for _, c := range st.clients {
		refused += c.refused
		admits += c.admits
		routes.merge(c.routes)
	}
	line(w, "admit_refused_frac", float64(refused)/float64(max(admits, 1)), "ratio", admits)
	if spec.gen.auto {
		n := max(routes.decided, 1)
		line(w, "route_first_infeasible_frac", float64(routes.firstInfeasible)/float64(n), "ratio", routes.decided)
		line(w, "route_rerouted_frac", float64(routes.rerouted)/float64(n), "ratio", routes.decided)
		line(w, "route_none_feasible_frac", float64(routes.noRoute)/float64(n), "ratio", routes.decided)
	}

	if err := checkServed(ctx, st, spec, fab, res); err != nil {
		return nil, err
	}
	if len(decisions) == 0 {
		return nil, errors.New("no decision completed in the timed phase")
	}

	if !cfg.trace {
		res.set("setup_s", median(setupTimes))
		res.set("op_p50_ms", median(decisions))
		res.set("aux_p50_ms", median(probes))
		res.set("heap_peak_mb", heapPeak)
		return res, nil
	}

	counts, err := registryCounts(st.env.metrics)
	if err != nil {
		return nil, err
	}
	zeroPerLayer(res)
	res.set("serve.retries_429", 1000*float64(retries)/float64(max(requests, 1)))
	res.set("serve.requests_failed", float64(res.failed))
	if spec.gen.auto {
		res.set("feasibility.route_first_infeasible_frac", ratio(float64(routes.firstInfeasible), float64(routes.decided)))
		res.set("feasibility.route_rerouted_frac", ratio(float64(routes.rerouted), float64(routes.decided)))
	}
	rp := replayParams{
		spec: spec, fab: fab, log: mergeLogs(st.clients), counts: counts,
		dir: cfg.dir, out: w, seed: cfg.seed,
	}
	if err := replayServed(ctx, rp, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runClients(ctx context.Context, clients []*benchClient, until time.Time) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			c.loop(ctx, until)
		}(c)
	}
	wg.Wait()
}

// mergeLogs orders every client's requests the way the single-writer
// loop processed them: by the snapshot sequence each answer carries,
// a committed decision before the refusals and probes evaluated
// against the state it published. It stops at the last sequence every
// client's log still covers.
func mergeLogs(clients []*benchClient) []logEntry {
	type keyed struct {
		e      logEntry
		client int
	}
	cut := int64(math.MaxInt64)
	for _, c := range clients {
		if n := len(c.log); n == c.logCap && n > 0 {
			cut = min(cut, c.log[n-1].seq)
		}
	}
	var all []keyed
	for _, c := range clients {
		for _, e := range c.log {
			if e.seq < cut {
				all = append(all, keyed{e, c.id})
			}
		}
	}
	committed := func(e logEntry) bool {
		switch e.outcome {
		case "admitted", "released", "renegotiated":
			return true
		}
		return false
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.e.seq != b.e.seq {
			return a.e.seq < b.e.seq
		}
		if ca, cb := committed(a.e), committed(b.e); ca != cb {
			return ca
		}
		if a.client != b.client {
			return a.client < b.client
		}
		return a.e.order < b.e.order
	})
	out := make([]logEntry, len(all))
	for i, k := range all {
		out[i] = k.e
	}
	return out
}

// checkServed verifies the service's outputs after the run: every
// admitted bound meets its deadline and equals a cold analysis of the
// served set bit for bit; with a journal, replaying it reproduces the
// served set; with route=auto, every committed path exists in the
// topology. Failures are recorded on res.
func checkServed(ctx context.Context, st *servedSetup, spec servedSpec, fab *fabric, res *result) error {
	c := newBenchClient(0, st.env.base, nil)
	defer c.tr.CloseIdleConnections()
	var fres serve.FlowsResponse
	if _, _, err := c.call(ctx, http.MethodGet, "/v1/flows", nil, &fres); err != nil {
		return err
	}
	var bres serve.BoundsResponse
	if _, _, err := c.call(ctx, http.MethodGet, "/v1/bounds", nil, &bres); err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	select {
	case err := <-st.env.jfail:
		res.problem("%v", err)
	default:
	}
	if fres.Seq != bres.Seq || len(fres.Flows) != len(bres.Verdicts) {
		res.problem("flows (seq %d, %d flows) and bounds (seq %d, %d verdicts) disagree",
			fres.Seq, len(fres.Flows), bres.Seq, len(bres.Verdicts))
		return nil
	}
	var flows []*model.Flow
	for i, fi := range fres.Flows {
		fc := model.FlowConfig{
			Name: fi.Name, Period: fi.Period, Jitter: fi.Jitter, Deadline: fi.Deadline,
			Class: fi.Class, Path: fi.Path, Cost: mustJSON(fi.Cost),
		}
		f, err := fc.Build()
		if err != nil {
			res.problem("served flow %s does not build: %v", fi.Name, err)
			return nil
		}
		if spec.gen.auto {
			if err := fab.topo.ValidatePath(f.Path); err != nil {
				res.problem("committed path of %s: %v", f.Name, err)
			}
		}
		v := bres.Verdicts[i]
		if v.Flow != f.Name {
			res.problem("bounds entry %d is %s, flows entry is %s", i, v.Flow, f.Name)
		}
		if v.Bound > f.Deadline {
			res.problem("admitted flow %s has bound %d above its deadline %d", f.Name, v.Bound, f.Deadline)
		}
		flows = append(flows, f)
	}

	if spec.journaled {
		if err := checkJournal(st.env.journalDir, flows); err != nil {
			res.problem("journal replay: %v", err)
		}
	}
	if len(flows) == 0 {
		return nil
	}
	fs, err := model.NewFlowSet(network, cloneFlows(flows))
	if err != nil {
		res.problem("served set is not a valid flow set: %v", err)
		return nil
	}
	cold, err := trajectory.AnalyzeContext(ctx, fs, trajectory.Options{})
	if err != nil {
		res.problem("cold analysis of the served set: %v", err)
		return nil
	}
	for i, b := range cold.Bounds {
		if b != bres.Verdicts[i].Bound {
			res.problem("flow %s: served bound %d, cold analysis %d", fs.Flows[i].Name, bres.Verdicts[i].Bound, b)
		}
	}
	return nil
}

// checkJournal recovers the tenant journal the way a restarted daemon
// would and compares the replayed set with the served one.
func checkJournal(dir string, served []*model.Flow) error {
	jl, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	defer jl.Close()
	_, cfgs, err := rec.Replay()
	if err != nil {
		return err
	}
	if len(cfgs) != len(served) {
		return fmt.Errorf("replayed %d flows, served %d", len(cfgs), len(served))
	}
	for i := range cfgs {
		f, err := cfgs[i].Build()
		if err != nil {
			return fmt.Errorf("journaled flow %s: %w", cfgs[i].Name, err)
		}
		if !sameFlow(f, served[i]) {
			return fmt.Errorf("flow %d: journal has %+v, served %+v", i, f, served[i])
		}
	}
	return nil
}

func sameFlow(a, b *model.Flow) bool {
	if a.Name != b.Name || a.Period != b.Period || a.Jitter != b.Jitter ||
		a.Deadline != b.Deadline || a.Class != b.Class || model.ComparePaths(a.Path, b.Path) != 0 ||
		len(a.Cost) != len(b.Cost) {
		return false
	}
	for i := range a.Cost {
		if a.Cost[i] != b.Cost[i] {
			return false
		}
	}
	return true
}

func cloneFlows(flows []*model.Flow) []*model.Flow {
	out := make([]*model.Flow, len(flows))
	for i, f := range flows {
		out[i] = f.Clone()
	}
	return out
}
