package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// closTopo2 builds the 2-spine/2-leaf/1-host fabric the re-route tests
// run on: exactly two equal-length candidate paths per host pair, one
// through each spine.
func closTopo2(t *testing.T) *model.Topology {
	t.Helper()
	topo, err := workload.ClosTopology(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func directPath(t *testing.T, topo *model.Topology, src, dst model.NodeID) []model.NodeID {
	t.Helper()
	p, err := topo.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spineHog is a background flow occupying only spine 0: it loads the
// deterministic direct route without tripping Assumption 1 against any
// host-to-host candidate.
func spineHog() *model.FlowConfig {
	return &model.FlowConfig{Name: "hog", Period: 100, Path: []model.NodeID{0}, Cost: json.RawMessage("30")}
}

// TestRouteAutoClosReroute is the tentpole acceptance scenario: on a
// loaded Clos fabric a flow refused on its direct (shortest) path is
// admitted on the spine-1 alternate via /v1/admit?route=auto, with the
// chosen path and the per-candidate verdicts on the wire.
func TestRouteAutoClosReroute(t *testing.T) {
	topo := closTopo2(t)
	_, ts := newTestServer(t, Config{Topology: topo})
	client := ts.Client()

	var d DecisionResponse
	if code := postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: spineHog()}, &d); code != http.StatusOK || d.Decision != "admitted" {
		t.Fatalf("hog: code %d decision %+v", code, d)
	}

	src, dst := workload.ClosHost(0, 0), workload.ClosHost(1, 0)
	x := &model.FlowConfig{
		Name: "x", Period: 50, Deadline: 30,
		Path: directPath(t, topo, src, dst), Cost: json.RawMessage("2"),
	}

	// Manual source routing on the direct path: refused.
	if code := postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: x}, &d); code != http.StatusOK {
		t.Fatalf("manual admit: code %d", code)
	}
	if d.Decision != "rejected" || d.Reason != "deadline miss" {
		t.Fatalf("manual admit: %+v, want rejected (deadline miss)", d)
	}

	// route=auto: same contract, admitted on the spine-1 alternate.
	if code := postJSON(t, client, ts.URL+"/v1/admit?route=auto", AdmitRequest{Flow: x}, &d); code != http.StatusOK {
		t.Fatalf("auto admit: code %d", code)
	}
	if d.Decision != "admitted" {
		t.Fatalf("auto admit: %+v, want admitted", d)
	}
	want := []model.NodeID{src, workload.ClosLeaf(0), workload.ClosSpine(1), workload.ClosLeaf(1), dst}
	if !reflect.DeepEqual(d.Path, want) {
		t.Fatalf("chosen path %v, want %v", d.Path, want)
	}
	if len(d.RouteCandidates) != 2 {
		t.Fatalf("route_candidates = %+v, want 2 entries", d.RouteCandidates)
	}
	if c := d.RouteCandidates[0]; c.Decision != "infeasible" || c.Chosen {
		t.Fatalf("direct candidate: %+v, want infeasible, not chosen", c)
	}
	if c := d.RouteCandidates[1]; c.Decision != "feasible" || !c.Chosen {
		t.Fatalf("alternate candidate: %+v, want feasible, chosen", c)
	}

	// The committed set serves the re-routed path.
	var flows FlowsResponse
	if code := getJSON(t, client, ts.URL+"/v1/flows", &flows); code != http.StatusOK {
		t.Fatalf("flows: code %d", code)
	}
	for _, fi := range flows.Flows {
		if fi.Name == "x" && !reflect.DeepEqual(fi.Path, want) {
			t.Fatalf("committed path %v, want %v", fi.Path, want)
		}
	}
}

// TestRouteRenegotiateAuto pins the renegotiation side of the
// tentpole: when an admitted flow's contract tightens past what its
// current path supports, ?route=auto moves it to a feasible alternate
// instead of refusing.
func TestRouteRenegotiateAuto(t *testing.T) {
	topo := closTopo2(t)
	_, ts := newTestServer(t, Config{Topology: topo})
	client := ts.Client()

	src, dst := workload.ClosHost(0, 0), workload.ClosHost(1, 0)
	direct := directPath(t, topo, src, dst)
	x := &model.FlowConfig{Name: "x", Period: 50, Deadline: 100, Path: direct, Cost: json.RawMessage("2")}

	var d DecisionResponse
	if postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: x}, &d); d.Decision != "admitted" {
		t.Fatalf("admit x: %+v", d)
	}
	if postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: spineHog()}, &d); d.Decision != "admitted" {
		t.Fatalf("admit hog: %+v", d)
	}

	tight := &model.FlowConfig{Name: "x", Period: 50, Deadline: 25, Path: direct, Cost: json.RawMessage("2")}
	if postJSON(t, client, ts.URL+"/v1/renegotiate", AdmitRequest{Flow: tight}, &d); d.Decision != "rejected" {
		t.Fatalf("manual renegotiate: %+v, want rejected", d)
	}
	if postJSON(t, client, ts.URL+"/v1/renegotiate?route=auto", AdmitRequest{Flow: tight}, &d); d.Decision != "renegotiated" {
		t.Fatalf("auto renegotiate: %+v, want renegotiated", d)
	}
	want := []model.NodeID{src, workload.ClosLeaf(0), workload.ClosSpine(1), workload.ClosLeaf(1), dst}
	if !reflect.DeepEqual(d.Path, want) {
		t.Fatalf("renegotiated path %v, want %v", d.Path, want)
	}

	var bounds BoundsResponse
	if code := getJSON(t, client, ts.URL+"/v1/bounds", &bounds); code != http.StatusOK || !bounds.AllFeasible {
		t.Fatalf("bounds after re-route: code %d %+v", code, bounds)
	}
}

// TestRouteManualPathValidation pins the satellite contract: with a
// daemon topology, manual-path requests routing over nonexistent links
// are 400s with a typed error, and bad route modes are refused.
func TestRouteManualPathValidation(t *testing.T) {
	topo := closTopo2(t)
	_, ts := newTestServer(t, Config{Topology: topo})
	client := ts.Client()

	// Host 1000 has no direct link to spine 0.
	ghost := &model.FlowConfig{Name: "g", Period: 50, Path: []model.NodeID{1000, 0}, Cost: json.RawMessage("2")}
	if code := postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: ghost}, nil); code != http.StatusBadRequest {
		t.Fatalf("nonexistent-link admit: code %d, want 400", code)
	}

	ok := &model.FlowConfig{Name: "g", Period: 50, Path: directPath(t, topo, 1000, 1100), Cost: json.RawMessage("2")}
	var d DecisionResponse
	if postJSON(t, client, ts.URL+"/v1/admit", AdmitRequest{Flow: ok}, &d); d.Decision != "admitted" {
		t.Fatalf("valid admit: %+v", d)
	}
	if code := postJSON(t, client, ts.URL+"/v1/renegotiate", AdmitRequest{Flow: ghost}, nil); code != http.StatusBadRequest {
		t.Fatalf("nonexistent-link renegotiate: code %d, want 400", code)
	}

	if code := postJSON(t, client, ts.URL+"/v1/admit?route=fastest", AdmitRequest{Flow: ok}, nil); code != http.StatusBadRequest {
		t.Fatalf("route=fastest: code %d, want 400", code)
	}

	// A topology-oblivious server refuses route=auto but keeps taking
	// arbitrary paths at face value.
	_, ts2 := newTestServer(t, Config{})
	if code := postJSON(t, ts2.Client(), ts2.URL+"/v1/admit?route=auto", AdmitRequest{Flow: ok}, nil); code != http.StatusBadRequest {
		t.Fatalf("route=auto without topology: code %d, want 400", code)
	}
	if postJSON(t, ts2.Client(), ts2.URL+"/v1/admit", AdmitRequest{Flow: ghost}, &d); d.Decision != "admitted" {
		t.Fatalf("topology-oblivious admit: %+v", d)
	}
}

// TestRouteDecisionOracleParity replays a demand sequence through
// /v1/admit?route=auto and, in lockstep, through the sequential cold
// oracle (feasibility.ScoreRoutesCold + ChooseRoute). Every decision,
// chosen path, and per-candidate verdict must be bit-identical — the
// core's parallel warm scoring may not change a single choice — and
// the served bounds must equal a cold analysis of the oracle's set.
func TestRouteDecisionOracleParity(t *testing.T) {
	topo, err := workload.ClosTopology(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := model.UnitDelayNetwork()
	_, ts := newTestServer(t, Config{Network: net, Topology: topo})
	client := ts.Client()

	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}, {0, 1}, {2, 3}, {3, 1}, {2, 0}, {1, 0}, {3, 2}}
	var oracleAdmitted []*model.Flow
	opt := trajectory.Options{}
	for k, pr := range pairs {
		src, dst := workload.ClosHost(pr[0], 0), workload.ClosHost(pr[1], 0)
		cost := model.Time(4 + 3*k%11)
		f := &model.FlowConfig{
			Name: fmt.Sprintf("f%02d", k), Period: model.Time(40 + 7*k), Deadline: 60,
			Path: directPath(t, topo, src, dst), Cost: json.RawMessage(fmt.Sprint(cost)),
		}
		var d DecisionResponse
		if code := postJSON(t, client, ts.URL+"/v1/admit?route=auto", AdmitRequest{Flow: f}, &d); code != http.StatusOK {
			t.Fatalf("flow %d: code %d", k, code)
		}

		mf, err := f.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfs, err := feasibility.RouteCandidates(topo, mf, feasibility.DefaultRouteK)
		if err != nil {
			t.Fatal(err)
		}
		scored := feasibility.ScoreRoutesCold(context.Background(), net, opt, oracleAdmitted, cfs)
		win := feasibility.ChooseRoute(scored)

		wantDecision := "admitted"
		if win < 0 {
			wantDecision = "rejected"
		}
		if d.Decision != wantDecision {
			t.Fatalf("flow %d: serve %q vs oracle %q (candidates %+v)", k, d.Decision, wantDecision, d.RouteCandidates)
		}
		if len(d.RouteCandidates) != len(scored) {
			t.Fatalf("flow %d: %d wire candidates vs %d oracle", k, len(d.RouteCandidates), len(scored))
		}
		for i := range scored {
			if d.RouteCandidates[i].Decision != scored[i].Outcome {
				t.Fatalf("flow %d candidate %d: serve %q vs oracle %q",
					k, i, d.RouteCandidates[i].Decision, scored[i].Outcome)
			}
			if !reflect.DeepEqual(d.RouteCandidates[i].Path, []model.NodeID(scored[i].Path)) {
				t.Fatalf("flow %d candidate %d: path %v vs %v", k, i, d.RouteCandidates[i].Path, scored[i].Path)
			}
		}
		if win >= 0 {
			if !reflect.DeepEqual(d.Path, []model.NodeID(scored[win].Path)) {
				t.Fatalf("flow %d: serve chose %v, oracle chose %v", k, d.Path, scored[win].Path)
			}
			oracleAdmitted = append(oracleAdmitted, scored[win].Flow)
		}
		requireServedBounds(t, client, ts.URL+"/v1/bounds", net, oracleAdmitted)
	}
	if len(oracleAdmitted) == 0 {
		t.Fatal("oracle admitted nothing; the fixture is degenerate")
	}
	// The committed sets agree flow by flow, path by path.
	var flows FlowsResponse
	if code := getJSON(t, client, ts.URL+"/v1/flows", &flows); code != http.StatusOK {
		t.Fatalf("flows: code %d", code)
	}
	if len(flows.Flows) != len(oracleAdmitted) {
		t.Fatalf("committed %d flows, oracle %d", len(flows.Flows), len(oracleAdmitted))
	}
	for i, fi := range flows.Flows {
		if fi.Name != oracleAdmitted[i].Name || !reflect.DeepEqual(fi.Path, []model.NodeID(oracleAdmitted[i].Path)) {
			t.Fatalf("committed flow %d: %s %v vs oracle %s %v",
				i, fi.Name, fi.Path, oracleAdmitted[i].Name, oracleAdmitted[i].Path)
		}
	}
}
