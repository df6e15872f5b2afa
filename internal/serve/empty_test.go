package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/journal/faultfs"
	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// getBodyNoSeq fetches url and returns its JSON body with "seq" removed.
func getBodyNoSeq(t *testing.T, client *http.Client, url string) map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s", url, resp.StatusCode, raw)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	delete(body, "seq")
	return body
}

// TestServeEmptySet drives a journaled tenant with no preload through
// the decisions that start from or end in the empty set: an add probe
// and a route=auto admission from empty must equal their cold
// oracles, a remove probe of the only flow is feasible with no
// verdicts, the last release leaves the reads a fresh tenant serves,
// and the emptied tenant checkpoints and rehydrates with no flows.
func TestServeEmptySet(t *testing.T) {
	topo := closTopo2(t)
	net := model.UnitDelayNetwork()
	disk := faultfs.New()
	cfg := RegistryConfig{
		Template:  Config{Network: net, Topology: topo, CheckpointEvery: 1},
		JournalFS: disk,
	}
	r, ts := newTestRegistry(t, cfg)
	client := ts.Client()
	ctx := context.Background()
	direct := directPath(t, topo, workload.ClosHost(0, 0), workload.ClosHost(1, 0))
	x := &model.FlowConfig{Name: "x", Period: 50, Deadline: 30, Path: direct, Cost: json.RawMessage("2")}

	// An add probe against the empty set is a cold analysis of x alone.
	var wr WhatIfResponse
	req := WhatIfRequest{Candidates: []WhatIfCandidate{{Op: "add", Flow: x}}}
	if code := postJSON(t, client, ts.URL+"/v1/busy/whatif", req, &wr); code != http.StatusOK || len(wr.Outcomes) != 1 {
		t.Fatalf("add probe: HTTP %d %+v", code, wr)
	}
	fs := model.MustNewFlowSet(net, []*model.Flow{mustBuild(t, x)})
	res, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := whatifProbe{Op: "add", Target: "x"}
	fillProbe(&p, fs.Flows, res.Bounds)
	if want := wireProbe(&p); !reflect.DeepEqual(wr.Outcomes[0], want) {
		t.Fatalf("add probe on the empty set: %+v, cold analysis %+v", wr.Outcomes[0], want)
	}

	// A route=auto admission from empty scores like ScoreRoutesCold
	// against no admitted flows.
	var d DecisionResponse
	if code := postJSON(t, client, ts.URL+"/v1/busy/admit?route=auto", AdmitRequest{Flow: x}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("route=auto admit: HTTP %d %+v", code, d)
	}
	cfs, err := feasibility.RouteCandidates(topo, mustBuild(t, x), feasibility.DefaultRouteK)
	if err != nil {
		t.Fatal(err)
	}
	cands := feasibility.ScoreRoutesCold(ctx, net, trajectory.Options{}, nil, cfs)
	win := feasibility.ChooseRoute(cands)
	if win < 0 {
		t.Fatalf("cold oracle finds no feasible route: %+v", cands)
	}
	want := decisionResponse("x", decision{Decision: feasibility.Decision{Cands: cands, Winner: win, Path: cands[win].Path}})
	if !reflect.DeepEqual(d.RouteCandidates, want.RouteCandidates) || !reflect.DeepEqual(d.Path, want.Path) {
		t.Fatalf("route=auto from empty: candidates %+v path %v, cold oracle %+v path %v",
			d.RouteCandidates, d.Path, want.RouteCandidates, want.Path)
	}

	// Removing the only flow leaves the feasible empty set.
	req = WhatIfRequest{Candidates: []WhatIfCandidate{{Op: "remove", Name: "x"}}}
	var rm WhatIfResponse
	if code := postJSON(t, client, ts.URL+"/v1/busy/whatif", req, &rm); code != http.StatusOK || len(rm.Outcomes) != 1 {
		t.Fatalf("remove probe: HTTP %d %+v", code, rm)
	}
	if o := rm.Outcomes[0]; o.Decision != "feasible" || o.Verdicts != nil || o.MinSlack != nil || o.Error != "" {
		t.Fatalf("remove probe of the only flow: %+v, want feasible with no verdicts", o)
	}

	// After the last release the tenant serves what a fresh one does.
	d = DecisionResponse{}
	if code := postJSON(t, client, ts.URL+"/v1/busy/release", ReleaseRequest{Name: "x"}, &d); code != http.StatusOK || d.Decision != "released" || d.Flows != 0 {
		t.Fatalf("last release: HTTP %d %+v", code, d)
	}
	for _, route := range []string{"bounds", "flows", "healthz"} {
		got := getBodyNoSeq(t, client, ts.URL+"/v1/busy/"+route)
		fresh := getBodyNoSeq(t, client, ts.URL+"/v1/fresh/"+route)
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("/%s after the last release: %v, fresh tenant %v", route, got, fresh)
		}
	}
	lastSeq := d.Seq

	// The emptied tenant's checkpoint holds no flows, and the tenant
	// rehydrates empty.
	closeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := r.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	jl, rec, err := journal.Open("journal/busy", journal.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	_ = jl.Close()
	if cp := rec.Checkpoint; cp == nil || cp.Seq != lastSeq || len(cp.Flows) != 0 || rec.LastSeq() != lastSeq {
		t.Fatalf("checkpoint after the last release: %+v (journal through %d), want seq %d with no flows", cp, rec.LastSeq(), lastSeq)
	}
	r2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r2.Close(closeCtx) }()
	s, err := r2.Server("busy")
	if err != nil {
		t.Fatal(err)
	}
	if sn := s.Snapshot(); sn.N() != 0 || sn.FS.N() != 0 || sn.Seq != lastSeq || !sn.AllFeasible {
		t.Fatalf("rehydrated emptied tenant: seq %d, %d flows, feasible %v; want seq %d, none", sn.Seq, sn.N(), sn.AllFeasible, lastSeq)
	}
}
