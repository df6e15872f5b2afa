// Command perfbench is trajan's benchmark. It runs one seeded workload
// in a single process and prints a human-readable report followed, as
// its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) run the same workload and then replay it layer by layer,
// printing the per-module metrics. See README.md for the workloads, the
// metric map and how to run it (bash perfbench/run.sh from the repository
// root).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir holds the run's scratch files (journals, span dumps).
	dir string
	// log receives the human-readable report.
	log io.Writer
}

// setups is how many times a run sets its workload up; setup_s is the
// median, so work moved into set-up shows without one slow set-up
// deciding the figure.
const setups = 9

type workloadFunc func(ctx context.Context, cfg runConfig) (*result, error)

var workloads = map[string]workloadFunc{
	"admit-durable":  runAdmitDurable,
	"route-auto":     runRouteAuto,
	"offline-verify": runOfflineVerify,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	// problems lists failed output checks; a run with any is incorrect.
	problems []string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fl.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = fl.Float64("seconds", 10, "length of the timed phase")
		trace   = fl.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		out     = fl.String("out", ".bench_build/perfbench-run", "directory for the run's scratch files")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if workloads[*name] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     dir,
		log:     stdout,
	}
	fmt.Fprintf(stdout, "perfbench: %s\n", machineStamp(dir))
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	merged := newResult()
	for _, n := range names {
		fmt.Fprintf(stdout, "== workload %s seed %d seconds %g trace %d\n", n, *seed, *seconds, *trace)
		res, err := workloads[n](ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		for _, m := range declared {
			v, ok := res.metrics[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem("metric %s was not measured", m.name)
			}
		}
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "CHECK FAILED (%s): %s\n", n, p)
		}
		merged.attempted += res.attempted
		merged.failed += res.failed
		merged.problems = append(merged.problems, res.problems...)
		for k, v := range res.metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			merged.metrics[k] = v
		}
	}
	if err := printJSON(stdout, merged, declared, len(names) > 1, names); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(merged.problems) > 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line: exactly the declared metrics (every
// workload's, name-prefixed, when several ran).
func printJSON(w io.Writer, r *result, declared []metricDef, prefixed bool, names []string) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, n := range names {
		for _, m := range declared {
			key := m.name
			if prefixed {
				key = n + "/" + key
			}
			v, ok := r.metrics[key]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// line prints one report line: a named figure with its unit and the
// sample count it rests on.
func line(w io.Writer, name string, v float64, unit string, n int) {
	fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", name, v, unit, n)
}

// timing prints the median, quartiles, MAD and (when enough samples lie
// beyond it) the tail percentile of a latency sample set.
func timing(w io.Writer, name string, xs []float64, unit string, tail float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(w, "  %-34s p50=%.6g q1=%.6g q3=%.6g mad=%.6g %s n=%d", name, q2, q1, q3, mad(xs), unit, len(xs))
	if v, err := percentile(xs, tail); err == nil {
		fmt.Fprintf(w, " p%g=%.6g", tail, v)
	} else {
		fmt.Fprintf(w, " p%g=refused (%v)", tail, err)
	}
	fmt.Fprintln(w)
}
