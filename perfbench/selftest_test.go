package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON pins the metric catalogue the program
// prints to the one BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, catalog []metricDef) {
		if len(declared) != len(catalog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalogue has %d", kind, len(declared), len(catalog))
		}
		for i := 0; i < min(len(declared), len(catalog)); i++ {
			if declared[i].Name != catalog[i].name || declared[i].Unit != catalog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalogue %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, catalog[i].name, catalog[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

type printed struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload in-process and decodes its result line.
func runTiny(t *testing.T, workload string, seconds string, trace string) printed {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace,
		"--out", t.TempDir()}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !p.Correct || p.Attempted < 1 {
		t.Fatalf("%s trace %s: correct=%v attempted=%d\n%s", workload, trace, p.Correct, p.Attempted, stdout.String())
	}
	return p
}

// TestWorkloadsSelfTest runs every workload briefly, untraced and
// traced, and checks the printed metrics against the declared ones, the
// bypass predictions and the layer-sum residual.
func TestWorkloadsSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			p := runTiny(t, w, "1", "0")
			for _, m := range b.EndToEnd {
				got, ok := p.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: printed %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(p.Metrics) != len(b.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, declared %d", len(p.Metrics), len(b.EndToEnd))
			}

			tp := runTiny(t, w, "1", "1")
			for _, m := range b.PerLayer {
				got, ok := tp.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("per-layer %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			value := func(name string) float64 { return tp.Metrics[name].Value }
			for _, m := range b.PerLayer {
				v := value(m.Name)
				switch {
				case strings.HasPrefix(m.Name, "journal.") && w != "admit-durable" && v != 0:
					t.Errorf("%s = %g: the journal is bypassed on %s", m.Name, v, w)
				case strings.HasPrefix(m.Name, "feasibility.route_") && w != "route-auto" && v != 0:
					t.Errorf("%s = %g: route search is bypassed on %s", m.Name, v, w)
				case strings.HasPrefix(m.Name, "sim.") && (w == "offline-verify") != (v != 0):
					t.Errorf("%s = %g on %s: the simulator runs only on offline-verify", m.Name, v, w)
				}
			}
			switch w {
			case "admit-durable":
				for _, name := range []string{"journal.append_us", "journal.bytes_per_decision", "trajectory.bounds_us"} {
					if value(name) <= 0 {
						t.Errorf("%s = %g on admit-durable", name, value(name))
					}
				}
			case "route-auto":
				for _, name := range []string{"feasibility.route_candidates_us", "feasibility.route_fanout", "model.ksp_us"} {
					if value(name) <= 0 {
						t.Errorf("%s = %g on route-auto", name, value(name))
					}
				}
				// The workload's premise: the first (spine-0) candidate
				// often cannot take the flow, and flows re-route.
				for _, name := range []string{"feasibility.route_first_infeasible_frac", "feasibility.route_rerouted_frac"} {
					if value(name) < 0.1 {
						t.Errorf("%s = %g on route-auto, want at least 0.1", name, value(name))
					}
				}
			}
			if w != "offline-verify" {
				if r := value("serve.residual_frac"); math.Abs(r) > residualBound {
					t.Errorf("layer residual %.3f outside ±%.2f", r, residualBound)
				}
				if value("serve.decision_us") <= 0 || value("serve.layer_sum_us") <= 0 {
					t.Errorf("decision %g us, layer sum %g us", value("serve.decision_us"), value("serve.layer_sum_us"))
				}
				if value("serve.self_us") < 0 || value("serve.queue_wait_us") < 0 {
					t.Errorf("serve self %g us, queue wait %g us: both must be non-negative", value("serve.self_us"), value("serve.queue_wait_us"))
				}
			}
		})
	}
}
