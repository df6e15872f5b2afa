package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trajan/internal/ef"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// readTrace parses a -trace event log written by the CLI.
func readTrace(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening trace: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	return events
}

// TestTraceVoIPDecomposition is the end-to-end acceptance check: running
// the CLI with -trace on the voip example scenario emits a JSON event
// log whose per-flow bound decomposition sums exactly to the reported
// Ri, including the EF non-preemption term.
func TestTraceVoIPDecomposition(t *testing.T) {
	params := workload.VoIPParams{
		Calls: 8, Hops: 5, Period: 200, Cost: 2,
		Deadline: 150, BackgroundCost: 12, BackgroundPeriod: 60,
	}
	fs, err := workload.VoIP(params)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(fs.MarshalConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "voip.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "events.json")
	out := runCLI(t, "-config", cfgPath, "-ef", "-trace", tracePath)
	if !strings.Contains(out, "voice0") {
		t.Fatalf("EF table missing voice flows:\n%s", out)
	}

	// Reference bounds computed in-process on the same scenario; the
	// config round trip must not perturb them.
	want, err := ef.AnalyzeContext(context.Background(), fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantR := make(map[string]int64, len(want.EFIndex))
	for k, idx := range want.EFIndex {
		wantR[fs.Flows[idx].Name] = int64(want.Trajectory.Bounds[k])
	}

	bounds := 0
	for _, e := range readTrace(t, tracePath) {
		if e.Type != obs.EvFlowBound {
			continue
		}
		bounds++
		d := e.Decomp
		if d == nil {
			t.Fatalf("flow.bound event for %q carries no decomposition", e.Flow)
		}
		if d.Unbounded {
			t.Fatalf("flow %q unexpectedly unbounded", e.Flow)
		}
		if got := d.Sum(); got != d.R {
			t.Errorf("flow %q: decomposition sums to %d, reported R = %d", e.Flow, got, d.R)
		}
		if want, ok := wantR[e.Flow]; !ok {
			t.Errorf("traced flow %q not in the EF set", e.Flow)
		} else if int64(d.R) != want {
			t.Errorf("flow %q: traced R = %d, reported bound = %d", e.Flow, d.R, want)
		}
		if d.Delta <= 0 {
			t.Errorf("flow %q: EF non-preemption delta = %d, want > 0 (AF/BE background present)", e.Flow, d.Delta)
		}
	}
	if bounds != params.Calls {
		t.Errorf("%d flow.bound events, want %d (one per voice flow)", bounds, params.Calls)
	}
}

// TestTraceReportRoundTrip: a -trace log renders back through
// -trace-report with every decomposition re-verified.
func TestTraceReportRoundTrip(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "events.json")
	runCLI(t, "-backend", "trajectory", "-workers", "1", "-trace", tracePath)
	out := runCLI(t, "-trace-report", tracePath)
	for _, want := range []string{"trace replay:", `flow "tau2": R = 37`, "decomposition verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("round-tripped trace flagged a mismatch:\n%s", out)
	}
}

// TestTraceReportErrors: unreadable or malformed logs are configuration
// errors (exit 2), not crashes.
func TestTraceReportErrors(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{\"seq\":1,\"bogus\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), garbled} {
		var b strings.Builder
		code, err := run([]string{"-trace-report", path}, &b)
		if err == nil || code != 2 {
			t.Errorf("trace-report %q: code %d, err %v; want exit 2", path, code, err)
		}
	}
}

// TestMetricsDump appends a Prometheus exposition of the run's counters.
func TestMetricsDump(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory", "-metrics-dump")
	for _, want := range []string{
		"trajan_analyses_total 1",
		"trajan_bound_term{flow=\"tau2\",term=\"r\"} 37",
		"trajan_smax_sweeps_total",
		"trajan_scratch_pool_news",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsAddr: an ephemeral listener starts and shuts down cleanly.
func TestMetricsAddr(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory", "-metrics-addr", "127.0.0.1:0")
	if !strings.Contains(out, "tau1") {
		t.Errorf("analysis output missing with -metrics-addr:\n%s", out)
	}
}
