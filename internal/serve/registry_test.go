package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal/faultfs"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

func newTestRegistry(t *testing.T, cfg RegistryConfig) (*Registry, *httptest.Server) {
	t.Helper()
	if cfg.Template.Network == (model.Network{}) {
		cfg.Template.Network = model.UnitDelayNetwork()
	}
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	return r, ts
}

func TestValidTenantNames(t *testing.T) {
	valid := []string{"a", "t1", "acme-prod", "a_b", "v1.2.3", "A" + string(make([]byte, 0)), "x.y"}
	for _, n := range valid {
		if !validTenantName(n) {
			t.Errorf("validTenantName(%q) = false, want true", n)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	invalid := []string{"", ".", ".hidden", "..", "a/b", "a\\b", "a b", "a\x00b", string(long), "café"}
	for _, n := range invalid {
		if validTenantName(n) {
			t.Errorf("validTenantName(%q) = true, want false", n)
		}
	}
}

// TestRegistryTenantIsolationAndAliases checks that tenants hold
// disjoint flow sets, that the unprefixed single-tenant routes alias
// the default tenant, and that hostile tenant names are rejected.
func TestRegistryTenantIsolationAndAliases(t *testing.T) {
	_, ts := newTestRegistry(t, RegistryConfig{DefaultTenant: "alpha"})
	client := ts.Client()

	// Admit through the aliased route: lands on tenant "alpha".
	var d DecisionResponse
	if code := postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK {
		t.Fatalf("alias admit: HTTP %d", code)
	}
	if d.Decision != "admitted" {
		t.Fatalf("alias admit: %q", d.Decision)
	}
	// Two more through the explicit alpha route, one into beta.
	for k := 1; k < 3; k++ {
		if code := postJSON(t, client, ts.URL+"/v1/alpha/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK || d.Decision != "admitted" {
			t.Fatalf("alpha admit %d: HTTP %d %q", k, code, d.Decision)
		}
	}
	if code := postJSON(t, client, ts.URL+"/v1/beta/admit", AdmitRequest{Flow: callFlow(9)}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("beta admit: HTTP %d %q", code, d.Decision)
	}

	var alpha, beta BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/alpha/bounds", &alpha); code != http.StatusOK {
		t.Fatalf("alpha bounds: HTTP %d", code)
	}
	if code := getJSON(t, client, ts.URL+"/v1/beta/bounds", &beta); code != http.StatusOK {
		t.Fatalf("beta bounds: HTTP %d", code)
	}
	if alpha.Flows != 3 || beta.Flows != 1 {
		t.Fatalf("isolation broken: alpha %d flows, beta %d flows", alpha.Flows, beta.Flows)
	}
	// The aliased read must agree with the explicit alpha route.
	var aliased BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/bounds", &aliased); code != http.StatusOK || aliased.Flows != 3 {
		t.Fatalf("aliased bounds: HTTP %d, %d flows", code, aliased.Flows)
	}
	// Beta's single flow is the first on its own tandem: bound 2·1+6.
	if beta.Verdicts[0].Bound != 8 {
		t.Fatalf("beta bound %d, want 8", beta.Verdicts[0].Bound)
	}
	// Health aliases.
	var h HealthResponse
	if code := getJSON(t, client, ts.URL+"/healthz", &h); code != http.StatusOK || h.Flows != 3 {
		t.Fatalf("alias healthz: HTTP %d flows %d", code, h.Flows)
	}
	if code := getJSON(t, client, ts.URL+"/v1/beta/healthz", &h); code != http.StatusOK || h.Flows != 1 {
		t.Fatalf("beta healthz: HTTP %d flows %d", code, h.Flows)
	}
	// Hostile tenant names are rejected before touching the journal
	// root: ".." is cleaned away by the mux (404); names that survive
	// routing are refused by validation (400).
	if code := getJSON(t, client, ts.URL+"/v1/../bounds", nil); code != http.StatusNotFound && code != http.StatusBadRequest {
		t.Fatalf("tenant \"..\": HTTP %d, want 404 or 400", code)
	}
	for _, bad := range []string{".hidden", "a%20b"} {
		if code := getJSON(t, client, ts.URL+"/v1/"+bad+"/bounds", nil); code != http.StatusBadRequest {
			t.Fatalf("tenant %q: HTTP %d, want 400", bad, code)
		}
	}
}

// TestRegistryEvictionRehydrate drives a MaxActive=1 registry: touching
// a second tenant evicts the first (drain + journal close), and the
// next touch rehydrates it from checkpoint+tail with identical bounds.
func TestRegistryEvictionRehydrate(t *testing.T) {
	col := &obs.Collector{}
	_, ts := newTestRegistry(t, RegistryConfig{
		Template:  Config{Options: trajectory.Options{Tracer: col}, CheckpointEvery: 2},
		JournalFS: faultfs.New(),
		MaxActive: 1,
	})
	client := ts.Client()

	var d DecisionResponse
	for k := 0; k < 4; k++ {
		if code := postJSON(t, client, ts.URL+"/v1/alpha/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK || d.Decision != "admitted" {
			t.Fatalf("admit %d: HTTP %d %q", k, code, d.Decision)
		}
	}
	var before BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/alpha/bounds", &before); code != http.StatusOK {
		t.Fatalf("bounds: HTTP %d", code)
	}

	// Touch beta: alpha is now least-recently-used and must drain.
	if code := postJSON(t, client, ts.URL+"/v1/beta/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK {
		t.Fatalf("beta admit: HTTP %d", code)
	}
	evicted := func() bool {
		for _, e := range col.Events() {
			if e.Type == obs.EvTenant && e.Op == "evict" && e.Tenant == "alpha" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !evicted() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !evicted() {
		t.Fatal("alpha was never evicted")
	}

	// Next touch rehydrates from disk: identical seq, flows and bounds.
	var after BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/alpha/bounds", &after); code != http.StatusOK {
		t.Fatalf("rehydrated bounds: HTTP %d", code)
	}
	if after.Seq != before.Seq || after.Flows != before.Flows {
		t.Fatalf("rehydrate mismatch: seq %d/%d flows %d/%d", after.Seq, before.Seq, after.Flows, before.Flows)
	}
	for i := range before.Verdicts {
		if after.Verdicts[i] != before.Verdicts[i] {
			t.Fatalf("verdict %d drifted across eviction: %+v vs %+v", i, after.Verdicts[i], before.Verdicts[i])
		}
	}
	var sawRehydrate bool
	for _, e := range col.Events() {
		if e.Type == obs.EvTenant && e.Op == "rehydrate" && e.Tenant == "alpha" && e.Flows == before.Flows {
			sawRehydrate = true
		}
	}
	if !sawRehydrate {
		t.Fatal("no rehydrate lifecycle event for alpha")
	}
}

// panicTracer injects one panic inside the single-writer loop at the
// exact point between journal commit and snapshot swap: the admission
// event for the marked flow is emitted after the record is durable and
// before the snapshot publishes.
type panicTracer struct {
	inner obs.Tracer
	armed atomic.Bool
}

func (p *panicTracer) Emit(e obs.Event) {
	if p.inner != nil {
		p.inner.Emit(e)
	}
	if e.Type == obs.EvAdmission && e.Flow == "boom" && e.Outcome == "admitted" &&
		p.armed.CompareAndSwap(true, false) {
		panic("injected panic between journal commit and snapshot swap")
	}
}

// TestRegistryQuarantineRestart injects a loop panic in tenant t1 after
// the admit record is journaled but before the snapshot swaps, while
// readers hammer t1 and a writer keeps mutating t2. It asserts: no
// reader ever sees a partial snapshot (only pre-crash or post-recovery
// states), t2 is undisturbed, the restarted t1 contains the journaled
// flow, its bounds match the cold oracle, and nothing leaks.
func TestRegistryQuarantineRestart(t *testing.T) {
	beforeGoroutines := runtime.NumGoroutine()

	col := &obs.Collector{}
	pt := &panicTracer{inner: col}
	r, err := NewRegistry(RegistryConfig{
		Template: Config{
			Network:         model.UnitDelayNetwork(),
			Options:         trajectory.Options{Tracer: pt},
			CheckpointEvery: 3,
		},
		JournalFS:         faultfs.New(),
		SegmentMaxRecords: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	client := ts.Client()

	var d DecisionResponse
	for k := 0; k < 3; k++ {
		if code := postJSON(t, client, ts.URL+"/v1/t1/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK || d.Decision != "admitted" {
			t.Fatalf("t1 admit %d: HTTP %d %q", k, code, d.Decision)
		}
	}
	for k := 0; k < 5; k++ {
		if code := postJSON(t, client, ts.URL+"/v1/t2/admit", AdmitRequest{Flow: callFlow(k)}, &d); code != http.StatusOK || d.Decision != "admitted" {
			t.Fatalf("t2 admit %d: HTTP %d %q", k, code, d.Decision)
		}
	}

	// Concurrent readers across the crash window. Failures are recorded,
	// not fataled, since these run off the test goroutine.
	var (
		done     = make(chan struct{})
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	record := func(format string, args ...any) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		errMu.Unlock()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var b BoundsResponse
				if code := getJSON(t, client, ts.URL+"/v1/t1/bounds", &b); code != http.StatusOK {
					record("t1 bounds during quarantine: HTTP %d", code)
					return
				}
				// Every observable state is a complete committed snapshot:
				// 3 flows pre-crash, 4 after recovery (boom was journaled),
				// 5 once the post-recovery admit lands. Never partial.
				if b.Seq < 1 || len(b.Verdicts) != b.Flows || b.Flows < 3 || b.Flows > 5 || !b.AllFeasible {
					record("t1 torn snapshot: seq %d flows %d verdicts %d feasible %v", b.Seq, b.Flows, len(b.Verdicts), b.AllFeasible)
					return
				}
				var h HealthResponse
				if code := getJSON(t, client, ts.URL+"/v1/t1/healthz", &h); code != http.StatusOK {
					record("t1 healthz during quarantine: HTTP %d", code)
					return
				}
			}
		}()
	}
	// A t2 churn writer: the sibling tenant must never notice.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var dd DecisionResponse
			name := fmt.Sprintf("churn%03d", i)
			fc := callFlow(20)
			fc.Name = name
			if code := postJSON(t, client, ts.URL+"/v1/t2/admit", AdmitRequest{Flow: fc}, &dd); code != http.StatusOK {
				record("t2 admit during t1 quarantine: HTTP %d", code)
				return
			}
			if code := postJSON(t, client, ts.URL+"/v1/t2/release", ReleaseRequest{Name: name}, &dd); code != http.StatusOK {
				record("t2 release during t1 quarantine: HTTP %d", code)
				return
			}
		}
	}()

	// Fire: the admit is journaled, then the loop dies before publishing.
	boom := callFlow(30)
	boom.Name = "boom"
	pt.armed.Store(true)
	if code := postJSON(t, client, ts.URL+"/v1/t1/admit", AdmitRequest{Flow: boom}, &d); code < 500 {
		t.Fatalf("boom admit: HTTP %d, want 5xx (loop panicked before reply)", code)
	}

	// The tenant restarts from its journal in the background; mutations
	// are refused (503) until the recovered server swaps in.
	var admitted bool
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code := postJSON(t, client, ts.URL+"/v1/t1/admit", AdmitRequest{Flow: callFlow(3)}, &d)
		if code == http.StatusOK && d.Decision == "admitted" {
			admitted = true
			break
		}
		if code != http.StatusServiceUnavailable && code != http.StatusOK {
			t.Fatalf("post-crash admit: unexpected HTTP %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !admitted {
		t.Fatal("tenant t1 never came back from quarantine")
	}
	close(done)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// The journaled-but-unpublished admit survived the crash.
	var flows FlowsResponse
	if code := getJSON(t, client, ts.URL+"/v1/t1/flows", &flows); code != http.StatusOK {
		t.Fatalf("t1 flows: HTTP %d", code)
	}
	names := make([]string, len(flows.Flows))
	for i, f := range flows.Flows {
		names[i] = f.Name
	}
	if len(names) != 5 || names[3] != "boom" {
		t.Fatalf("recovered set %v, want [call00 call01 call02 boom call03]", names)
	}

	// Bit-exact parity with the cold oracle over the same sequence: each
	// admit feasible under ScoreRoutesCold, the recovered bounds those of
	// a cold analysis of the resulting set.
	var oracleSet []*model.Flow
	for _, fc := range []*model.FlowConfig{callFlow(0), callFlow(1), callFlow(2), boom, callFlow(3)} {
		f := mustBuild(t, fc)
		sc := feasibility.ScoreRoutesCold(context.Background(), model.UnitDelayNetwork(), trajectory.Options{}, oracleSet, []*model.Flow{f})
		if sc[0].Outcome != "feasible" {
			t.Fatalf("oracle admit %s: %s (%v)", fc.Name, sc[0].Outcome, sc[0].Err)
		}
		oracleSet = append(oracleSet, f)
	}
	requireServedBounds(t, client, ts.URL+"/v1/t1/bounds", model.UnitDelayNetwork(), oracleSet)

	// t2 was never quarantined and still holds its 5 flows.
	var t2b BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/t2/bounds", &t2b); code != http.StatusOK || t2b.Flows != 5 {
		t.Fatalf("t2 after t1 crash: HTTP %d flows %d", code, t2b.Flows)
	}
	var sawQuarantine, sawRestart bool
	for _, e := range col.Events() {
		if e.Type != obs.EvTenant {
			continue
		}
		if e.Tenant == "t2" && (e.Op == "quarantine" || e.Op == "restart") {
			t.Fatalf("t2 lifecycle disturbed: %+v", e)
		}
		if e.Tenant == "t1" && e.Op == "quarantine" {
			sawQuarantine = true
		}
		if e.Tenant == "t1" && e.Op == "restart" && e.Outcome == "ok" {
			sawRestart = true
		}
	}
	if !sawQuarantine || !sawRestart {
		t.Fatalf("lifecycle events missing: quarantine=%v restart=%v", sawQuarantine, sawRestart)
	}

	// Graceful close, then the leak check from serve_test.go.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	reap := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > beforeGoroutines+2 && time.Now().Before(reap) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > beforeGoroutines+2 {
		t.Errorf("goroutine leak after close: %d before, %d after", beforeGoroutines, n)
	}
}

// TestRegistryJournalFailureHook latches a tenant journal with an
// injected fsync failure: the failing mutation is reverted and refused,
// the per-tenant failure hook fires exactly once, reads keep serving
// the last durable state, and the sibling tenant is unaffected.
func TestRegistryJournalFailureHook(t *testing.T) {
	ffs := faultfs.New()
	var (
		hookMu    sync.Mutex
		hookCalls []string
	)
	_, ts := newTestRegistry(t, RegistryConfig{
		JournalFS: ffs,
		OnJournalFailure: func(tenant string, err error) {
			hookMu.Lock()
			hookCalls = append(hookCalls, tenant)
			hookMu.Unlock()
		},
	})
	client := ts.Client()

	// Opening t1 writes the initial checkpoint (first fsync); the first
	// admit's record fsync is the second. Fail it.
	var d DecisionResponse
	if code := getJSON(t, client, ts.URL+"/v1/t1/healthz", nil); code != http.StatusOK {
		t.Fatalf("t1 open: HTTP %d", code)
	}
	ffs.FailSyncAt(2)
	if code := postJSON(t, client, ts.URL+"/v1/t1/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusInternalServerError {
		t.Fatalf("admit with dead journal: HTTP %d, want 500", code)
	}
	// Latched: further mutations refused, reads still fine and empty
	// (the failed admit was reverted).
	if code := postJSON(t, client, ts.URL+"/v1/t1/admit", AdmitRequest{Flow: callFlow(1)}, &d); code != http.StatusInternalServerError {
		t.Fatalf("admit after latch: HTTP %d, want 500", code)
	}
	var b BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/t1/bounds", &b); code != http.StatusOK || b.Flows != 0 {
		t.Fatalf("reads after latch: HTTP %d flows %d, want 200/0", code, b.Flows)
	}
	// The sibling tenant journals independently and still admits.
	if code := postJSON(t, client, ts.URL+"/v1/t2/admit", AdmitRequest{Flow: callFlow(0)}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("t2 admit: HTTP %d %q", code, d.Decision)
	}
	hookMu.Lock()
	calls := append([]string(nil), hookCalls...)
	hookMu.Unlock()
	if len(calls) != 1 || calls[0] != "t1" {
		t.Fatalf("journal failure hook calls %v, want exactly [t1]", calls)
	}
}
