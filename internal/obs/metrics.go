package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the upper bounds of the histogram buckets:
// 1, 2, 4, …, 2^20, +Inf. Power-of-two buckets cover everything the
// engine observes (sweep counts, busy-period iterations, evaluated
// view counts) with bounded memory and no configuration.
const histBuckets = 22

// Histogram counts observations in power-of-two buckets.
type Histogram struct {
	buckets [histBuckets]atomic.Int64 // buckets[k] counts v ≤ 2^k; last is +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	k := 0
	for k < histBuckets-1 && v > int64(1)<<k {
		k++
	}
	h.buckets[k].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Metrics is a registry of named counters, gauges, gauge functions and
// histograms. Metric names follow the Prometheus convention and may
// carry inline labels (`trajan_bound{flow="tau1"}`); the exposition
// splits the label block off for the TYPE header. All mutation is
// lock-free after first registration, so Metrics can sit directly on
// the engine's tracer path.
//
// Metrics itself implements Tracer: Emit aggregates engine events into
// the trajan_* metric set documented in docs/OBSERVABILITY.md. It also
// implements expvar.Var (String returns the registry as one JSON
// object), so it can be published under a single expvar name.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = new(Counter)
		m.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = new(Gauge)
		m.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is read at exposition time —
// the hook for externally maintained state (e.g. the engine's scratch
// pool churn counter).
func (m *Metrics) GaugeFunc(name string, fn func() int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gaugeFuncs[name] = fn
}

// Histogram returns (registering on first use) the named histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = new(Histogram)
		m.hists[name] = h
	}
	return h
}

// Emit implements Tracer: each engine event increments the aggregate
// trajan_* metrics. Per-flow bound decompositions land in labeled
// gauges so a scrape shows the latest analysis's term values.
func (m *Metrics) Emit(e Event) {
	switch e.Type {
	case EvAnalysisStart:
		m.Counter("trajan_analyses_total").Inc()
	case EvSmaxSeed:
		// Constant names for the engine's ops keep every engine event
		// allocation-free; the concatenation serves replayed traces.
		switch e.Op {
		case "warm":
			m.Counter("trajan_smax_seed_warm_total").Inc()
		case "cold":
			m.Counter("trajan_smax_seed_cold_total").Inc()
		default:
			m.Counter("trajan_smax_seed_" + e.Op + "_total").Inc()
		}
	case EvSmaxSweep:
		m.Counter("trajan_smax_sweeps_total").Inc()
		m.Histogram("trajan_smax_sweep_evals").Observe(int64(e.Evaluated))
	case EvSmaxDone:
		if e.Op == "warm" {
			switch e.Outcome {
			case "converged":
				m.Counter("trajan_warm_hits_total").Inc()
			case "fallback":
				m.Counter("trajan_warm_fallbacks_total").Inc()
			}
		}
		m.Histogram("trajan_smax_run_sweeps").Observe(int64(e.Sweep))
	case EvBslow:
		m.Histogram("trajan_bslow_iters").Observe(int64(e.Iters))
	case EvDelta:
		switch e.Op {
		case "add":
			m.Counter("trajan_delta_add_total").Inc()
		case "remove":
			m.Counter("trajan_delta_remove_total").Inc()
		case "update":
			m.Counter("trajan_delta_update_total").Inc()
		default:
			m.Counter("trajan_delta_" + e.Op + "_total").Inc()
		}
		if e.Outcome == "warm" {
			m.Histogram("trajan_delta_dirty_flows").Observe(int64(e.Dirty))
		}
	case EvWhatIfBatch:
		m.Counter("trajan_whatif_batches_total").Inc()
		m.Counter("trajan_whatif_candidates_total").Add(int64(e.Candidates))
	case EvFlowBound:
		if d := e.Decomp; d != nil && len(d.Candidates) > 0 {
			// Best-of-bounds provenance record: export which backend won
			// and by how much, and leave the Lemma-2 term gauges to the
			// trajectory engine's own decompositions (a provenance record
			// carries no term breakdown to overwrite them with).
			m.Counter(fmt.Sprintf("trajan_backend_wins_total{backend=%q}", d.Backend)).Inc()
			if !d.Unbounded {
				m.Gauge(boundTermName(e.Flow, "combined_r")).Set(int64(d.R))
				m.Gauge(boundTermName(e.Flow, "combined_margin")).Set(int64(d.Margin))
			}
		} else if d != nil && !d.Unbounded {
			var work int64
			for _, t := range d.Terms {
				work += int64(t.Work)
			}
			set := func(term string, v int64) {
				m.Gauge(boundTermName(e.Flow, term)).Set(v)
			}
			set("r", int64(d.R))
			set("workload", work)
			set("self", int64(d.Self))
			set("counted_twice", int64(d.CountedTwice))
			set("links", int64(d.Links))
			set("delta", int64(d.Delta))
			set("critical_t", int64(d.CriticalT))
		}
	case EvSaturation:
		m.Counter("trajan_saturation_total").Inc()
	case EvAdmission:
		out := e.Outcome
		if i := strings.IndexByte(out, ' '); i >= 0 {
			out = out[:i]
		}
		if out == "" {
			out = "unknown"
		}
		name := "trajan_admission_" + out + "_total"
		if e.Tenant != "" {
			name += fmt.Sprintf("{tenant=%q}", e.Tenant)
		}
		m.Counter(name).Inc()
		if (e.Op == "release" && out == "released") || (e.Op == "admit" && out == "rejected") {
			// The flow is not resident (a refused admit never was), so
			// drop its series: otherwise churn of uniquely named flows
			// grows the registry, and every scrape, without bound.
			m.mu.Lock()
			for _, term := range boundTerms {
				delete(m.gauges, boundTermName(e.Flow, term))
			}
			m.mu.Unlock()
		}
	case EvServeRequest:
		if e.Tenant != "" {
			m.Counter(fmt.Sprintf("trajan_serve_requests_total{route=%q,outcome=%q,tenant=%q}", e.Op, e.Outcome, e.Tenant)).Inc()
		} else {
			m.Counter(fmt.Sprintf("trajan_serve_requests_total{route=%q,outcome=%q}", e.Op, e.Outcome)).Inc()
		}
	case EvJournal:
		name := fmt.Sprintf("trajan_journal_%s_total{outcome=%q}", e.Op, e.Outcome)
		if e.Tenant != "" {
			name = fmt.Sprintf("trajan_journal_%s_total{outcome=%q,tenant=%q}", e.Op, e.Outcome, e.Tenant)
		}
		m.Counter(name).Inc()
		if e.Op == "append" && e.Outcome == "ok" {
			bytes := "trajan_journal_bytes_total"
			if e.Tenant != "" {
				bytes += fmt.Sprintf("{tenant=%q}", e.Tenant)
			}
			m.Counter(bytes).Add(int64(e.Value))
		}
	case EvTenant:
		m.Counter(fmt.Sprintf("trajan_tenant_lifecycle_total{op=%q,outcome=%q,tenant=%q}", e.Op, e.Outcome, e.Tenant)).Inc()
	case EvRouteCandidate:
		m.Counter(fmt.Sprintf("trajan_route_candidates_total{outcome=%q}", e.Outcome)).Inc()
	case EvRouteDecision:
		name := fmt.Sprintf("trajan_route_decisions_total{outcome=%q}", e.Outcome)
		if e.Tenant != "" {
			name = fmt.Sprintf("trajan_route_decisions_total{outcome=%q,tenant=%q}", e.Outcome, e.Tenant)
		}
		m.Counter(name).Inc()
		m.Histogram("trajan_route_fanout").Observe(int64(e.Candidates))
		if e.Index > 0 {
			m.Histogram("trajan_route_winner_rank").Observe(int64(e.Index))
		}
	}
}

// boundTerms are the per-flow trajan_bound_term series Emit maintains:
// the Lemma-2 decomposition terms and the provenance record's pair.
var boundTerms = [...]string{
	"r", "workload", "self", "counted_twice", "links", "delta", "critical_t",
	"combined_r", "combined_margin",
}

// boundTermName is the gauge name of one flow's bound term.
func boundTermName(flow, term string) string {
	return fmt.Sprintf("trajan_bound_term{flow=%q,term=%q}", flow, term)
}

// snapshot returns all metric names and render closures in sorted
// order, so the exposition (and its golden tests) is deterministic.
func (m *Metrics) snapshot() (names []string, kind map[string]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kind = make(map[string]string)
	for n := range m.counters {
		names = append(names, n)
		kind[n] = "counter"
	}
	for n := range m.gauges {
		names = append(names, n)
		kind[n] = "gauge"
	}
	for n := range m.gaugeFuncs {
		names = append(names, n)
		kind[n] = "gaugefunc"
	}
	for n := range m.hists {
		names = append(names, n)
		kind[n] = "histogram"
	}
	sort.Strings(names)
	return names, kind
}

// baseName strips an inline label block for the Prometheus TYPE line.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format, metrics sorted by name.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	names, kind := m.snapshot()
	typed := make(map[string]bool)
	typeLine := func(name, t string) {
		if b := baseName(name); !typed[b] {
			typed[b] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", b, t)
		}
	}
	for _, n := range names {
		switch kind[n] {
		case "counter":
			typeLine(n, "counter")
			if _, err := fmt.Fprintf(w, "%s %d\n", n, m.Counter(n).Value()); err != nil {
				return err
			}
		case "gauge":
			typeLine(n, "gauge")
			if _, err := fmt.Fprintf(w, "%s %d\n", n, m.Gauge(n).Value()); err != nil {
				return err
			}
		case "gaugefunc":
			typeLine(n, "gauge")
			m.mu.Lock()
			fn := m.gaugeFuncs[n]
			m.mu.Unlock()
			if _, err := fmt.Fprintf(w, "%s %d\n", n, fn()); err != nil {
				return err
			}
		case "histogram":
			typeLine(n, "histogram")
			h := m.Histogram(n)
			var cum int64
			for k := 0; k < histBuckets; k++ {
				cum += h.buckets[k].Load()
				le := fmt.Sprintf("%d", int64(1)<<k)
				if k == histBuckets-1 {
					le = "+Inf"
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, h.Sum(), n, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the registry as one JSON object mapping metric name to
// value (histograms to {sum, count}), satisfying expvar.Var so the
// whole registry can be published under a single expvar name.
func (m *Metrics) String() string {
	names, kind := m.snapshot()
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: ", n)
		switch kind[n] {
		case "counter":
			fmt.Fprintf(&b, "%d", m.Counter(n).Value())
		case "gauge":
			fmt.Fprintf(&b, "%d", m.Gauge(n).Value())
		case "gaugefunc":
			m.mu.Lock()
			fn := m.gaugeFuncs[n]
			m.mu.Unlock()
			fmt.Fprintf(&b, "%d", fn())
		case "histogram":
			h := m.Histogram(n)
			fmt.Fprintf(&b, `{"sum": %d, "count": %d}`, h.Sum(), h.Count())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Handler serves the registry over HTTP: /metrics in Prometheus text
// format, /vars as the expvar-style JSON object. This is what
// `cmd/trajan -metrics-addr` mounts.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = io.WriteString(w, m.String())
	})
	return mux
}
