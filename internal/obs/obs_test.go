package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"trajan/internal/model"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleEvents exercises every event type and every field at least once.
func sampleEvents() []Event {
	return []Event{
		{Type: EvAnalysisStart, Flows: 3, Mode: "prefix-fixpoint"},
		{Type: EvSmaxSeed, Op: "warm", Dirty: 2},
		{Type: EvSmaxSweep, Sweep: 1, Evaluated: 6, Changed: 4},
		{Type: EvSmaxSweep, Sweep: 2, Evaluated: 4},
		{Type: EvSmaxDone, Mode: "prefix-fixpoint", Op: "warm", Sweep: 2, Outcome: "converged"},
		{Type: EvBslow, Flow: "tau1", Iters: 3, Value: 16},
		{Type: EvDelta, Op: "add", Flow: "tau4", Outcome: "warm", Dirty: 2},
		{Type: EvWhatIfBatch, Candidates: 2, Workers: 2},
		{Type: EvWhatIfCand, Index: 1, Op: "add", Outcome: "ok"},
		{Type: EvSaturation, Flow: "tau9", Op: "bound"},
		{Type: EvAdmission, Flow: "tau4", Op: "warm", Outcome: "admitted"},
		{Type: EvFlowBound, Flow: "tau1", Value: 31, Decomp: &BoundDecomp{
			R: 31, CriticalT: -1, Bslow: 14, SlowNode: 2,
			Self: 4, SelfPackets: 2, SelfCharge: 2,
			CountedTwice: 5, Links: 8, Delta: 3,
			Terms: []WorkloadTerm{
				{Flow: "tau2", A: 7, Packets: 3, Charge: 4, Work: 12, SameDirection: true},
			},
		}},
	}
}

// TestJSONTracerRoundTrip: the JSON-Lines log replays into the emitted
// events, with gapless Seq in file order.
func TestJSONTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	in := sampleEvents()
	for _, e := range in {
		tr.Emit(e)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("replayed %d events, emitted %d", len(out), len(in))
	}
	for i := range out {
		want := in[i]
		want.Seq = int64(i) + 1
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("event %d: replayed %+v, want %+v", i, out[i], want)
		}
	}
}

// TestEventOmitsZeroFields: the schema stays compact — a minimal event
// serializes to seq and type only.
func TestEventOmitsZeroFields(t *testing.T) {
	raw, err := json.Marshal(Event{Seq: 1, Type: EvSmaxSweep})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"seq":1,"type":"smax.sweep"}` {
		t.Errorf("minimal event serialized as %s", raw)
	}
}

// TestReadEventsRejectsUnknownFields: schema drift surfaces as an error.
func TestReadEventsRejectsUnknownFields(t *testing.T) {
	_, err := ReadEvents(strings.NewReader(`{"seq":1,"type":"x","bogus":3}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "decoding trace event 0") {
		t.Errorf("error does not locate the event: %v", err)
	}
}

// errWriter fails after n writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestJSONTracerLatchesWriteError: the first write error is kept and
// later emissions are dropped instead of panicking or interleaving.
func TestJSONTracerLatchesWriteError(t *testing.T) {
	tr := NewJSONTracer(&errWriter{n: 1})
	tr.Emit(Event{Type: EvAnalysisStart})
	tr.Emit(Event{Type: EvSmaxSweep})
	tr.Emit(Event{Type: EvSmaxDone})
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("latched error = %v, want disk full", err)
	}
}

// TestCollector: buffered events carry gapless Seq, Events returns a
// copy, Reset drops the buffer. Concurrent emission must keep Seq
// aligned with slice order.
func TestCollector(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Emit(Event{Type: EvSmaxSweep})
		}()
	}
	wg.Wait()
	evs := c.Events()
	if len(evs) != 50 {
		t.Fatalf("%d events buffered, want 50", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i)+1 {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
	evs[0].Type = "mutated"
	if c.Events()[0].Type != EvSmaxSweep {
		t.Error("Events returned a live reference to the buffer")
	}
	c.Reset()
	if len(c.Events()) != 0 {
		t.Error("Reset did not drop the buffer")
	}
}

// countingTracer records how many events it saw.
type countingTracer struct{ n int }

func (c *countingTracer) Emit(Event) { c.n++ }

// TestTee: nils are dropped, an empty set collapses to nil (preserving
// the disabled fast path), a singleton is unwrapped, and a real tee
// fans out in order.
func TestTee(t *testing.T) {
	if tr := Tee(); tr != nil {
		t.Error("empty Tee is not nil")
	}
	if tr := Tee(nil, nil); tr != nil {
		t.Error("all-nil Tee is not nil")
	}
	var a countingTracer
	if tr := Tee(nil, &a); tr != Tracer(&a) {
		t.Error("singleton Tee not unwrapped")
	}
	var b countingTracer
	tr := Tee(&a, nil, &b)
	tr.Emit(Event{})
	tr.Emit(Event{})
	if a.n != 2 || b.n != 2 {
		t.Errorf("fan-out counts a=%d b=%d, want 2 2", a.n, b.n)
	}
}

// TestBoundDecompSum pins the decomposition identity on a hand-built
// value: R = Σ work + self + countedTwice + links + delta − t*.
func TestBoundDecompSum(t *testing.T) {
	d := &BoundDecomp{
		R: 31, CriticalT: -1, Self: 4, CountedTwice: 5, Links: 8, Delta: 3,
		Terms: []WorkloadTerm{{Work: 12}, {Work: -2}},
	}
	if got := d.Sum(); got != 31 {
		t.Errorf("Sum() = %d, want 31", got)
	}
}

// TestHistogramBuckets: values land in the first power-of-two bucket
// that covers them; sum and count accumulate.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 1 << 19, 1 << 30} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if want := int64(1+2+3) + 1<<19 + 1<<30; h.Sum() != want {
		t.Errorf("sum %d, want %d", h.Sum(), want)
	}
	checks := map[int]int64{
		0:               1, // v=1 ≤ 2^0
		1:               1, // v=2 ≤ 2^1
		2:               1, // v=3 ≤ 2^2
		19:              1, // v=2^19
		histBuckets - 1: 1, // v=2^30 overflows into +Inf
	}
	for k, want := range checks {
		if got := h.buckets[k].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", k, got, want)
		}
	}
}

// metricsFromSample replays the sample events (plus the fallback and
// rejection variants) into a fresh registry.
func metricsFromSample() *Metrics {
	m := NewMetrics()
	for _, e := range sampleEvents() {
		m.Emit(e)
	}
	m.Emit(Event{Type: EvSmaxDone, Mode: "prefix-fixpoint", Op: "warm", Sweep: 5, Outcome: "fallback"})
	m.Emit(Event{Type: EvSmaxSeed, Op: "cold", Dirty: 3})
	m.Emit(Event{Type: EvSmaxDone, Mode: "prefix-fixpoint", Op: "cold", Sweep: 4, Outcome: "converged"})
	m.Emit(Event{Type: EvAdmission, Flow: "tau5", Op: "cold", Outcome: "rejected (unstable)"})
	m.Emit(Event{Type: EvAdmission, Flow: "tau6", Op: "warm", Outcome: ""})
	m.GaugeFunc("trajan_scratch_pool_news", func() int64 { return 7 })
	return m
}

// TestMetricsEmitMapping: the event → metric aggregation documented in
// docs/OBSERVABILITY.md.
func TestMetricsEmitMapping(t *testing.T) {
	m := metricsFromSample()
	for name, want := range map[string]int64{
		"trajan_analyses_total":           1,
		"trajan_smax_seed_warm_total":     1,
		"trajan_smax_seed_cold_total":     1,
		"trajan_smax_sweeps_total":        2,
		"trajan_warm_hits_total":          1,
		"trajan_warm_fallbacks_total":     1,
		"trajan_delta_add_total":          1,
		"trajan_whatif_batches_total":     1,
		"trajan_whatif_candidates_total":  2,
		"trajan_saturation_total":         1,
		"trajan_admission_admitted_total": 1,
		"trajan_admission_rejected_total": 1,
		"trajan_admission_unknown_total":  1,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Gauge(`trajan_bound_term{flow="tau1",term="r"}`).Value(); got != 31 {
		t.Errorf("bound term gauge r = %d, want 31", got)
	}
	if got := m.Gauge(`trajan_bound_term{flow="tau1",term="workload"}`).Value(); got != 12 {
		t.Errorf("bound term gauge workload = %d, want 12", got)
	}
	h := m.Histogram("trajan_smax_run_sweeps")
	if h.Count() != 3 || h.Sum() != 2+5+4 {
		t.Errorf("smax_run_sweeps count=%d sum=%d, want 3 11", h.Count(), h.Sum())
	}
	if m.Histogram("trajan_delta_dirty_flows").Count() != 1 {
		t.Error("delta dirty histogram missed the warm mutation")
	}
}

// TestMetricsEmitEngineEventsAllocFree: once the registry has seen
// them, the events the analysis engine emits on every mutation and
// sweep fold into metrics without allocating — a daemon that installs
// the registry as its tracer pays no garbage per decision for them.
func TestMetricsEmitEngineEventsAllocFree(t *testing.T) {
	events := []Event{
		{Type: EvSmaxSeed, Op: "warm", Dirty: 2},
		{Type: EvSmaxSeed, Op: "cold", Dirty: 5},
		{Type: EvSmaxSweep, Sweep: 1, Evaluated: 6, Changed: 4},
		{Type: EvSmaxDone, Mode: "prefix-fixpoint", Op: "warm", Sweep: 2, Outcome: "converged"},
		{Type: EvSmaxDone, Mode: "prefix-fixpoint", Op: "warm", Sweep: 3, Outcome: "fallback"},
		{Type: EvBslow, Flow: "tau1", Iters: 3, Value: 16},
		{Type: EvDelta, Op: "add", Flow: "tau4", Outcome: "warm", Dirty: 2},
		{Type: EvDelta, Op: "remove", Flow: "tau4", Outcome: "undo"},
		{Type: EvDelta, Op: "update", Flow: "tau4", Outcome: "cold"},
		{Type: EvWhatIfBatch, Candidates: 2, Workers: 2},
		{Type: EvWhatIfCand, Index: 1, Op: "add", Outcome: "ok"},
	}
	m := NewMetrics()
	var tr Tracer = m
	for _, e := range events {
		tr.Emit(e)
	}
	for _, e := range events {
		if n := testing.AllocsPerRun(100, func() { tr.Emit(e) }); n != 0 {
			t.Errorf("%s (op %q): %.0f allocs per Emit, want 0", e.Type, e.Op, n)
		}
	}
}

// TestWritePrometheusGolden pins the text exposition byte for byte
// (sorted names, deduped TYPE lines, cumulative buckets). Regenerate
// with -update after intentional schema changes.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := metricsFromSample().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestMetricsString: the expvar rendering is one valid JSON object
// covering every metric.
func TestMetricsString(t *testing.T) {
	s := metricsFromSample().String()
	var obj map[string]any
	if err := json.Unmarshal([]byte(s), &obj); err != nil {
		t.Fatalf("String() is not valid JSON: %v\n%s", err, s)
	}
	if v, ok := obj["trajan_analyses_total"].(float64); !ok || v != 1 {
		t.Errorf("trajan_analyses_total = %v", obj["trajan_analyses_total"])
	}
	if v, ok := obj["trajan_scratch_pool_news"].(float64); !ok || v != 7 {
		t.Errorf("gauge func value = %v", obj["trajan_scratch_pool_news"])
	}
	hist, ok := obj["trajan_smax_run_sweeps"].(map[string]any)
	if !ok || hist["count"].(float64) != 3 {
		t.Errorf("histogram rendering = %v", obj["trajan_smax_run_sweeps"])
	}
}

// TestHandler serves both endpoints with the documented content types.
func TestHandler(t *testing.T) {
	srv := httptest.NewServer(metricsFromSample().Handler())
	defer srv.Close()
	get := func(path, wantType, wantBody string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Errorf("%s content type %q, want prefix %q", path, ct, wantType)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), wantBody) {
			t.Errorf("%s body missing %q:\n%s", path, wantBody, buf.String())
		}
	}
	get("/metrics", "text/plain", "# TYPE trajan_analyses_total counter")
	get("/vars", "application/json", `"trajan_analyses_total": 1`)
}

// TestEventValueIsModelTime: Value round-trips the saturation rail.
func TestEventValueIsModelTime(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	tr.Emit(Event{Type: EvBslow, Value: model.TimeInfinity})
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsUnbounded(evs[0].Value) {
		t.Errorf("TimeInfinity did not survive the round trip: %d", evs[0].Value)
	}
	_ = fmt.Sprintf("%d", evs[0].Value) // Value is an integer type
}
