package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// callFlow returns the k-th identical VoIP-style EF flow over the
// [1,2,3] tandem. The n-th such flow's bound is 2n+6, so deadline 20
// admits exactly 7 (same shape as the feasibility controller tests).
func callFlow(k int) *model.FlowConfig {
	return &model.FlowConfig{
		Name:     fmt.Sprintf("call%02d", k),
		Period:   50,
		Deadline: 20,
		Path:     []model.NodeID{1, 2, 3},
		Cost:     json.RawMessage("2"),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Network == (model.Network{}) {
		cfg.Network = model.UnitDelayNetwork()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON posts body and decodes the response into out (when the
// status is 2xx), returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, payload, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, payload, err)
		}
	}
	return resp.StatusCode
}

// TestServeAdmitUntilSaturation drives the HTTP API through the
// controller-test scenario: identical flows are admitted while
// deadlines hold (exactly 7), then rejected with an explicit reason,
// and a release frees capacity for one more.
func TestServeAdmitUntilSaturation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	admitted := 0
	for k := 0; k < 12; k++ {
		var d DecisionResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK {
			t.Fatalf("admit %d: HTTP %d", k, code)
		}
		switch d.Decision {
		case "admitted":
			admitted++
			if d.Flows != admitted {
				t.Fatalf("admit %d: %d flows after %d admissions", k, d.Flows, admitted)
			}
		case "rejected":
			if d.Reason != "deadline miss" {
				t.Fatalf("admit %d: reason %q", k, d.Reason)
			}
		default:
			t.Fatalf("admit %d: decision %q", k, d.Decision)
		}
	}
	if admitted != 7 {
		t.Fatalf("admitted %d flows, want 7", admitted)
	}

	var b BoundsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/bounds", &b); code != http.StatusOK {
		t.Fatalf("bounds: HTTP %d", code)
	}
	if b.Flows != 7 || !b.AllFeasible || len(b.Verdicts) != 7 {
		t.Fatalf("bounds: %+v", b)
	}
	// The worst identical flow's bound is 2*7+6 = 20, slack 0.
	if b.MinSlack == nil || *b.MinSlack != 0 {
		t.Fatalf("min slack %v, want 0", b.MinSlack)
	}

	var fr FlowsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/flows", &fr); code != http.StatusOK || len(fr.Flows) != 7 {
		t.Fatalf("flows: HTTP %d, %d flows", code, len(fr.Flows))
	}

	// Releasing one flow frees capacity for exactly one more.
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{Name: "call00"}, &d); code != http.StatusOK || d.Decision != "released" {
		t.Fatalf("release: HTTP %d, %+v", code, d)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(20)}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("re-admit after release: HTTP %d, %+v", code, d)
	}
}

// TestServeErrors covers the HTTP status mapping: 404 unknown flow,
// 400 invalid bodies, per-probe what-if errors.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{Name: "ghost"}, &d); code != http.StatusNotFound {
		t.Errorf("release unknown: HTTP %d, want 404", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/renegotiate", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusNotFound {
		t.Errorf("renegotiate unknown: HTTP %d, want 404", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/admit", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	bad := callFlow(0)
	bad.Period = -1
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: bad}, &d); code != http.StatusBadRequest {
		t.Errorf("invalid flow: HTTP %d, want 400", code)
	}

	var wr WhatIfResponse
	code := postJSON(t, ts.Client(), ts.URL+"/v1/whatif", WhatIfRequest{Candidates: []WhatIfCandidate{
		{Op: "remove", Name: "ghost"},
		{Op: "add", Flow: callFlow(1)},
		{Op: "frobnicate"},
	}}, &wr)
	if code != http.StatusOK || len(wr.Outcomes) != 3 {
		t.Fatalf("whatif: HTTP %d, %d outcomes", code, len(wr.Outcomes))
	}
	if wr.Outcomes[0].Decision != "error" || !strings.Contains(wr.Outcomes[0].Error, "unknown flow") {
		t.Errorf("remove-ghost probe: %+v", wr.Outcomes[0])
	}
	if wr.Outcomes[1].Decision != "feasible" {
		t.Errorf("empty-set add probe: %+v", wr.Outcomes[1])
	}
	if wr.Outcomes[2].Decision != "error" {
		t.Errorf("bad-op probe: %+v", wr.Outcomes[2])
	}
}

// TestServePreload installs a flow set at startup and verifies the
// initial snapshot reflects it.
func TestServePreload(t *testing.T) {
	f1, err := callFlow(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := callFlow(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Preload: []*model.Flow{f1, f2}})
	if sn := s.Snapshot(); sn.N() != 2 || sn.Seq != 1 || !sn.AllFeasible {
		t.Fatalf("preload snapshot: %+v", sn)
	}
	var h HealthResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); code != http.StatusOK || h.Flows != 2 {
		t.Fatalf("healthz: HTTP %d, %+v", code, h)
	}
	// A renegotiation of a preloaded flow works.
	upd := callFlow(1)
	upd.Deadline = 30
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/renegotiate", AdmitRequest{Flow: upd}, &d); code != http.StatusOK || d.Decision != "renegotiated" {
		t.Fatalf("renegotiate preloaded: HTTP %d, %+v", code, d)
	}
}

// gateTracer blocks the mutation loop inside one Emit call when armed,
// so tests can deterministically fill the bounded queues.
type gateTracer struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// newGateTracer registers a cleanup that opens the gate, so a test
// failure never leaves the mutation loop blocked (which would deadlock
// the httptest server's Close).
func newGateTracer(t *testing.T) *gateTracer {
	g := &gateTracer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gateTracer) open() { g.once.Do(func() { close(g.release) }) }

func (g *gateTracer) Emit(obs.Event) {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
}

// TestBackpressure fills the bounded mutation queue while the loop is
// blocked mid-decision and verifies the overflow answer is an
// immediate 429 with Retry-After, not a hang.
func TestBackpressure(t *testing.T) {
	gate := newGateTracer(t)
	s, ts := newTestServer(t, Config{
		QueueDepth: 1,
		Options:    trajectory.Options{Tracer: gate},
	})
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("seed admit: HTTP %d, %+v", code, d)
	}

	// Block the loop inside the next decision's first engine event.
	gate.armed.Store(true)
	inflight := make(chan DecisionResponse, 1)
	go func() {
		var d DecisionResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(1)}, &d)
		inflight <- d
	}()
	<-gate.entered

	// The loop is stuck; one mutation fits the queue, the next must
	// bounce.
	queued := &mutation{op: "admit", flow: mustBuild(t, callFlow(2)), ctx: context.Background(), reply: make(chan decision, 1)}
	if err := s.enqueueMutation(queued); err != nil {
		t.Fatalf("queueing mutation: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit", strings.NewReader(`{"flow": {"name": "x", "period": 50, "deadline": 20, "path": [1, 2, 3], "cost": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow admit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	gate.open()
	if d := <-inflight; d.Decision != "admitted" {
		t.Fatalf("blocked admit: %+v", d)
	}
	if rep := <-queued.reply; rep.Outcome != "admitted" {
		t.Fatalf("queued admit: %+v", rep)
	}
}

func mustBuild(t *testing.T, fc *model.FlowConfig) *model.Flow {
	t.Helper()
	f, err := fc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWhatIfCoalescing verifies that what-if requests queued while the
// loop is busy are answered by ONE Analyzer.WhatIf batch.
func TestWhatIfCoalescing(t *testing.T) {
	gate := newGateTracer(t)
	col := &obs.Collector{}
	s, ts := newTestServer(t, Config{
		Options: trajectory.Options{Tracer: obs.Tee(gate, col)},
	})
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK {
		t.Fatalf("seed admit: HTTP %d", code)
	}

	gate.armed.Store(true)
	inflight := make(chan struct{})
	go func() {
		var d DecisionResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(1)}, &d)
		close(inflight)
	}()
	<-gate.entered

	col.Reset()
	const probes = 3
	reqs := make([]*whatifReq, probes)
	for k := range reqs {
		reqs[k] = &whatifReq{
			cands: []whatifCand{{op: "add", flow: mustBuild(t, callFlow(10+k))}},
			reply: make(chan whatifReply, 1),
		}
		if err := s.enqueueWhatIf(reqs[k]); err != nil {
			t.Fatalf("queueing what-if %d: %v", k, err)
		}
	}
	gate.open()
	<-inflight
	for k, w := range reqs {
		rep := <-w.reply
		if rep.err != nil || len(rep.probes) != 1 || rep.probes[k-k].Err != nil {
			t.Fatalf("what-if %d: %+v", k, rep)
		}
		if !rep.probes[0].AllFeasible {
			t.Errorf("what-if %d: hypothetical set infeasible", k)
		}
	}
	batches := 0
	for _, e := range col.Events() {
		if e.Type == obs.EvWhatIfBatch {
			batches++
			if e.Candidates != probes {
				t.Errorf("batch carries %d candidates, want %d", e.Candidates, probes)
			}
		}
	}
	if batches != 1 {
		t.Errorf("%d WhatIf batches for %d concurrent probes, want 1 (coalesced)", batches, probes)
	}
}

// TestShutdownDrain blocks the loop, queues mutations and what-ifs,
// then shuts down: every accepted request must still get a real reply,
// and post-shutdown requests must bounce with 503.
func TestShutdownDrain(t *testing.T) {
	gate := newGateTracer(t)
	s, ts := newTestServer(t, Config{
		QueueDepth: 8,
		Options:    trajectory.Options{Tracer: gate},
	})
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK {
		t.Fatalf("seed admit: HTTP %d", code)
	}

	gate.armed.Store(true)
	inflight := make(chan struct{})
	go func() {
		var d DecisionResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(1)}, &d)
		close(inflight)
	}()
	<-gate.entered

	queued := &mutation{op: "admit", flow: mustBuild(t, callFlow(2)), ctx: context.Background(), reply: make(chan decision, 1)}
	if err := s.enqueueMutation(queued); err != nil {
		t.Fatal(err)
	}
	wif := &whatifReq{cands: []whatifCand{{op: "add", flow: mustBuild(t, callFlow(3))}}, reply: make(chan whatifReply, 1)}
	if err := s.enqueueWhatIf(wif); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Shutdown is underway: new work is refused. The refusal flag flips
	// a moment after the Shutdown goroutine starts, so retry until it
	// lands; anything accepted in the meantime must still drain.
	var accepted []*mutation
	for n := 0; ; n++ {
		m := &mutation{op: "admit", flow: mustBuild(t, callFlow(9+n)), ctx: context.Background(), reply: make(chan decision, 1)}
		err := s.enqueueMutation(m)
		if err == ErrShuttingDown {
			break
		}
		if err == nil {
			accepted = append(accepted, m)
		} else if err != ErrBackpressure {
			t.Fatalf("enqueue during shutdown: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/release", "application/json", strings.NewReader(`{"name": "call00"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mutation during shutdown: HTTP %d, want 503", resp.StatusCode)
	}

	// ...but everything accepted before drains to a reply.
	gate.open()
	<-inflight
	if rep := <-queued.reply; rep.Outcome != "admitted" {
		t.Errorf("queued mutation dropped in drain: %+v", rep)
	}
	if rep := <-wif.reply; rep.err != nil || len(rep.probes) != 1 {
		t.Errorf("queued what-if dropped in drain: %+v", rep)
	}
	for k, m := range accepted {
		if rep := <-m.reply; rep.Outcome == "" && rep.Err == nil {
			t.Errorf("race-window mutation %d dropped in drain: %+v", k, rep)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Reads still work after shutdown (snapshots outlive the loop).
	var b BoundsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/bounds", &b); code != http.StatusOK {
		t.Errorf("post-shutdown bounds: HTTP %d", code)
	}
}

// oracleOp is one scripted operation of the parity test.
type oracleOp struct {
	op   string // admit | release | renegotiate
	flow *model.FlowConfig
	name string
}

// oracleScript exercises admits up to and past saturation, releases,
// re-admits, and renegotiations both tightening (rejected) and
// relaxing (accepted) — every decision path of the serving layer.
func oracleScript() []oracleOp {
	var ops []oracleOp
	for k := 0; k < 10; k++ { // saturates at 7
		ops = append(ops, oracleOp{op: "admit", flow: callFlow(k)})
	}
	ops = append(ops,
		oracleOp{op: "release", name: "call03"},
		oracleOp{op: "admit", flow: callFlow(11)}, // fits again
		oracleOp{op: "admit", flow: callFlow(12)}, // saturated again
		// Cross traffic on a partly overlapping path.
		oracleOp{op: "admit", flow: &model.FlowConfig{
			Name: "video", Period: 40, Deadline: 60,
			Path: []model.NodeID{2, 3, 4}, Cost: json.RawMessage("3"),
		}},
		// Tightening the contract breaks it: rejected, old kept.
		oracleOp{op: "renegotiate", flow: &model.FlowConfig{
			Name: "video", Period: 40, Deadline: 10,
			Path: []model.NodeID{2, 3, 4}, Cost: json.RawMessage("3"),
		}},
		// Relaxing it is accepted.
		oracleOp{op: "renegotiate", flow: &model.FlowConfig{
			Name: "video", Period: 60, Deadline: 80,
			Path: []model.NodeID{2, 3, 4}, Cost: json.RawMessage("3"),
		}},
		oracleOp{op: "release", name: "ghost"}, // unknown
		oracleOp{op: "release", name: "call11"},
	)
	return ops
}

// coldVerdict is the parity oracle: a cold trajectory analysis of one
// flow list (trajectory.AnalyzeContext), summarised by SetVerdict. The
// empty list is trivially feasible.
func coldVerdict(t *testing.T, net model.Network, flows []*model.Flow) (bounds []model.Time, ok bool, err error) {
	t.Helper()
	if len(flows) == 0 {
		return nil, true, nil
	}
	fs, err := model.NewFlowSet(net, flows)
	if err != nil {
		t.Fatalf("oracle set: %v", err)
	}
	res, err := trajectory.AnalyzeContext(context.Background(), fs, trajectory.Options{})
	if err != nil {
		return nil, false, err
	}
	ok, _ = feasibility.SetVerdict(flows, res.Bounds)
	return res.Bounds, ok, nil
}

// requireServedBounds checks the served snapshot bit for bit against a
// cold analysis of the oracle's committed flow list, flow by flow in
// order.
func requireServedBounds(t *testing.T, client *http.Client, url string, net model.Network, flows []*model.Flow) {
	t.Helper()
	var b BoundsResponse
	if code := getJSON(t, client, url, &b); code != http.StatusOK {
		t.Fatalf("bounds: HTTP %d", code)
	}
	want, _, err := coldVerdict(t, net, flows)
	if err != nil {
		t.Fatalf("cold analysis of the committed set: %v", err)
	}
	if len(b.Verdicts) != len(flows) {
		t.Fatalf("served %d verdicts, oracle holds %d flows", len(b.Verdicts), len(flows))
	}
	for i, v := range b.Verdicts {
		if v.Flow != flows[i].Name || v.Bound != want[i] {
			t.Fatalf("flow %d: served %s/%d, cold oracle %s/%d", i, v.Flow, v.Bound, flows[i].Name, want[i])
		}
	}
}

// TestDecisionOracleParity replays the same request sequence through
// the serving layer (HTTP, warm single-writer core) and a cold oracle:
// each admit is scored by ScoreRoutesCold as a single candidate, each
// renegotiation and release by a cold analysis of the resulting set.
// Decisions must be identical and, after every step, the served bounds
// must equal a cold analysis of the oracle's committed set bit for bit.
func TestDecisionOracleParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := model.UnitDelayNetwork()
	var oracle []*model.Flow
	index := func(name string) int {
		for i, f := range oracle {
			if f.Name == name {
				return i
			}
		}
		return -1
	}
	post := func(route string, body any) string {
		var d DecisionResponse
		switch code := postJSON(t, ts.Client(), ts.URL+route, body, &d); code {
		case http.StatusOK:
			return d.Decision
		case http.StatusNotFound:
			return "unknown"
		default:
			t.Fatalf("%s: HTTP %d", route, code)
			return ""
		}
	}

	for i, op := range oracleScript() {
		var got, want string
		switch op.op {
		case "admit":
			got = post("/v1/admit", AdmitRequest{Flow: op.flow})
			f := mustBuild(t, op.flow)
			want = "rejected"
			sc := feasibility.ScoreRoutesCold(context.Background(), net, trajectory.Options{}, oracle, []*model.Flow{f})
			if sc[0].Outcome == "feasible" {
				want = "admitted"
				oracle = append(oracle, f)
			}
		case "release":
			got = post("/v1/release", ReleaseRequest{Name: op.name})
			want = "unknown"
			if j := index(op.name); j >= 0 {
				want = "released"
				oracle = append(oracle[:j:j], oracle[j+1:]...)
			}
		case "renegotiate":
			got = post("/v1/renegotiate", AdmitRequest{Flow: op.flow})
			f := mustBuild(t, op.flow)
			want = "unknown"
			if j := index(f.Name); j >= 0 {
				trial := append([]*model.Flow(nil), oracle...)
				trial[j] = f
				want = "rejected"
				if _, ok, err := coldVerdict(t, net, trial); err == nil && ok {
					want = "renegotiated"
					oracle = trial
				}
			}
		}
		if got != want {
			t.Fatalf("op %d (%s %s%s): serve decided %q, oracle decided %q",
				i, op.op, op.name, flowName(op.flow), got, want)
		}
		requireServedBounds(t, ts.Client(), ts.URL+"/v1/bounds", net, oracle)
	}
}

func flowName(fc *model.FlowConfig) string {
	if fc == nil {
		return ""
	}
	return fc.Name
}

// TestConcurrentMixedClients is the acceptance-criteria race test: 64
// concurrent clients in four roles (admit/release churners, what-if
// probers, bounds readers, health/flow listers) hammer the service
// under -race, then the server shuts down gracefully and the test
// asserts no goroutine leaked.
func TestConcurrentMixedClients(t *testing.T) {
	before := runtime.NumGoroutine()

	metrics := obs.NewMetrics()
	cfg := Config{
		Options:        trajectory.Options{Tracer: metrics},
		Metrics:        metrics,
		QueueDepth:     256,
		RequestTimeout: 10 * time.Second,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const clients = 64
	const iters = 12
	var wg sync.WaitGroup
	fail := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			switch c % 4 {
			case 0, 1: // churners: admit → renegotiate → release
				for n := 0; n < iters; n++ {
					fc := callFlow(0)
					fc.Name = fmt.Sprintf("churn-%02d-%02d", c, n)
					var d DecisionResponse
					code := post429(client, ts.URL+"/v1/admit", AdmitRequest{Flow: fc}, &d)
					if code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: admit HTTP %d", c, code)
						return
					}
					if d.Decision != "admitted" {
						continue // set saturated: fine under churn
					}
					upd := *fc
					upd.Deadline = 40
					var rd DecisionResponse
					code = post429(client, ts.URL+"/v1/renegotiate", AdmitRequest{Flow: &upd}, &rd)
					if code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: renegotiate HTTP %d", c, code)
						return
					}
					code = post429(client, ts.URL+"/v1/release", ReleaseRequest{Name: fc.Name}, &d)
					if code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: release HTTP %d", c, code)
						return
					}
				}
			case 2: // what-if probers
				for n := 0; n < iters; n++ {
					fc := callFlow(0)
					fc.Name = fmt.Sprintf("probe-%02d-%02d", c, n)
					var wr WhatIfResponse
					code := post429(client, ts.URL+"/v1/whatif", WhatIfRequest{Candidates: []WhatIfCandidate{
						{Op: "add", Flow: fc},
						{Op: "remove", Name: "churn-00-00"}, // may or may not exist
					}}, &wr)
					if code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: whatif HTTP %d", c, code)
						return
					}
					if len(wr.Outcomes) != 2 {
						fail <- fmt.Sprintf("client %d: %d outcomes", c, len(wr.Outcomes))
						return
					}
				}
			case 3: // snapshot readers: seq must never go backwards
				var lastSeq int64
				for n := 0; n < iters*4; n++ {
					var b BoundsResponse
					if code := getJSONq(client, ts.URL+"/v1/bounds", &b); code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: bounds HTTP %d", c, code)
						return
					}
					if b.Seq < lastSeq {
						fail <- fmt.Sprintf("client %d: snapshot seq went backwards: %d after %d", c, b.Seq, lastSeq)
						return
					}
					lastSeq = b.Seq
					var h HealthResponse
					if code := getJSONq(client, ts.URL+"/healthz", &h); code != http.StatusOK {
						fail <- fmt.Sprintf("client %d: healthz HTTP %d", c, code)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Graceful shutdown: drains cleanly, then refuses mutations.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/admit", "application/json",
		strings.NewReader(`{"flow": {"name": "late", "period": 50, "deadline": 20, "path": [1, 2, 3], "cost": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown admit: HTTP %d, want 503", resp.StatusCode)
	}
	ts.Close()

	// Leak check (same pattern as trajectory/robustness_test.go): allow
	// the runtime a moment to reap finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak after shutdown: %d before, %d after", before, n)
	}
}

// post429 posts with retry on backpressure (bounded), returning the
// final status.
func post429(client *http.Client, url string, body, out any) int {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0
		}
		payload, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return 0
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if resp.StatusCode < 300 && out != nil {
			if json.Unmarshal(payload, out) != nil {
				return 0
			}
		}
		return resp.StatusCode
	}
}

func getJSONq(client *http.Client, url string, out any) int {
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if resp.StatusCode < 300 && out != nil {
		if json.Unmarshal(payload, out) != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// TestMetricsExposition: the serve-layer request counters and queue
// gauge appear on /metrics.
func TestMetricsExposition(t *testing.T) {
	metrics := obs.NewMetrics()
	_, ts := newTestServer(t, Config{
		Metrics: metrics,
		Options: trajectory.Options{Tracer: metrics},
	})
	var d DecisionResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK {
		t.Fatalf("admit: HTTP %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`trajan_serve_requests_total{route="admit",outcome="ok"} 1`,
		"trajan_serve_queue_depth 0",
		"trajan_admission_admitted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// BenchmarkServeChurn is the serving-layer baseline recorded in
// BENCH_trajectory.json: one admit → what-if → release round over HTTP
// against a warm set, per iteration.
func BenchmarkServeChurn(b *testing.B) {
	s, err := New(Config{Network: model.UnitDelayNetwork()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	client := ts.Client()

	// A standing set of 4 flows keeps the delta re-analysis non-trivial.
	for k := 0; k < 4; k++ {
		var d DecisionResponse
		if code := post429(client, ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK || d.Decision != "admitted" {
			b.Fatalf("seed admit %d: HTTP %d %+v", k, code, d)
		}
	}
	churn := callFlow(50)
	churn.Name = "churn"
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wr WhatIfResponse
		if code := post429(client, ts.URL+"/v1/whatif", WhatIfRequest{Candidates: []WhatIfCandidate{{Op: "add", Flow: churn}}}, &wr); code != http.StatusOK {
			b.Fatalf("whatif: HTTP %d", code)
		}
		var d DecisionResponse
		if code := post429(client, ts.URL+"/v1/admit", AdmitRequest{Flow: churn}, &d); code != http.StatusOK || d.Decision != "admitted" {
			b.Fatalf("admit: HTTP %d %+v", code, d)
		}
		if code := post429(client, ts.URL+"/v1/release", ReleaseRequest{Name: "churn"}, &d); code != http.StatusOK || d.Decision != "released" {
			b.Fatalf("release: HTTP %d %+v", code, d)
		}
	}
}

// TestServeBackendVerdicts: with Config.Backend set, every committed
// snapshot's bounds come from the selected backend. The combined
// backend's published bounds must equal a direct AnalyzeBackend run on
// the committed set, and a bogus backend fails construction.
func TestServeBackendVerdicts(t *testing.T) {
	for _, b := range []feasibility.Backend{feasibility.BackendNetcalc, feasibility.BackendCombined} {
		s, ts := newTestServer(t, Config{Backend: b})
		admitted := 0
		for k := 0; k < 3; k++ {
			var d DecisionResponse
			if code := postJSON(t, ts.Client(), ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK {
				t.Fatalf("%s: admit %d: HTTP %d", b, k, code)
			}
			if d.Decision == "admitted" {
				admitted++
			}
		}
		if admitted == 0 {
			t.Fatalf("%s: no flow admitted", b)
		}
		// A looser backend admits fewer identical flows, never more:
		// combined includes trajectory, so it must take all three.
		if b == feasibility.BackendCombined && admitted != 3 {
			t.Errorf("combined: admitted %d of 3, want 3", admitted)
		}
		sn := s.snap.Load()
		if sn == nil || sn.FS == nil {
			t.Fatalf("%s: no snapshot published", b)
		}
		want, err := feasibility.AnalyzeBackend(context.Background(), sn.FS, b, trajectory.Options{})
		if err != nil {
			t.Fatalf("%s: reference analysis: %v", b, err)
		}
		for i := range want.Bounds {
			if sn.Bounds[i] != want.Bounds[i] {
				t.Errorf("%s: flow %d: snapshot bound %d, reference %d",
					b, i, sn.Bounds[i], want.Bounds[i])
			}
		}
	}
	if _, err := New(Config{Network: model.UnitDelayNetwork(), Backend: "simplex"}); err == nil {
		t.Error("bogus Config.Backend accepted")
	}
}
