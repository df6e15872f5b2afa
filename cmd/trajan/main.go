// Command trajan analyses a flow-set configuration: it computes
// worst-case end-to-end response-time bounds with the trajectory
// approach (and, for comparison, the holistic and network-calculus
// baselines), checks deadlines, and reports end-to-end jitters.
//
// Usage:
//
//	trajan -config flows.json [-backend all|trajectory|holistic|netcalc|combined]
//	       [-ef] [-detail] [-explain flow]
//	       [-sensitivity] [-timeout 30s] [-workers N]
//	       [-trace events.json] [-metrics-addr :9090] [-metrics-dump]
//	       [-cpuprofile f] [-memprofile f]
//	trajan -admit churn.json [-backend trajectory|holistic|netcalc|combined]
//	       [same observability and tuning flags]
//	       [-route auto -topology clos:4x4x4|topo.json [-route-k 4]]
//	trajan -trace-report events.json
//
// With no -config the paper's Section-5 example is analysed.
//
// -backend selects the analysis (docs/BACKENDS.md). The default, all,
// tabulates trajectory, holistic and netcalc with the exit verdict
// following trajectory. Any other value prints that backend's bounds
// with per-flow provenance (for combined, each bound's margin over the
// best losing candidate) and the verdict follows it. -explain and
// -detail need all or trajectory; an explicit -backend excludes -ef. A
// flow split for Assumption 1 gets jitter-chained trajectory bounds;
// the other backends bound only its fragments, so they are refused
// alone and informational under all.
//
// -admit replays a churn trace (an event log of flow adds, removes and
// updates) through the admission core trajand runs
// (feasibility.Controller): each add is an admission test and each
// update a renegotiation in place, both judged by a delta re-analysis
// of the running flow set under -backend (default trajectory) and
// undone when refused, so the replay cost tracks the change size, not
// the set size. With -route auto the submitted path of every add is
// only read for its endpoints: up to -route-k shortest candidate paths
// over -topology are scored as one parallel what-if batch and the flow
// is admitted on the feasible path with the widest post-admission
// slack; update paths are validated against -topology. -admit is
// exclusive with -ef and with -backend all.
//
// Observability (see docs/OBSERVABILITY.md): -trace streams a
// replayable JSON event log of the analysis — fixed-point sweeps,
// warm-start outcomes, mutations, admission decisions, and each flow's
// exact bound decomposition (under -backend all, of trajectory only).
// -trace-report renders such a log as a "why is Ri what it is"
// breakdown, re-verifying that every decomposition sums to the reported
// bound. -metrics-addr serves the
// aggregated metrics registry over HTTP (/metrics in Prometheus text
// format, /vars as JSON) for the duration of the run; -metrics-dump
// prints the registry after the run.
//
// The process exit code is the analysis verdict, so the tool can gate
// admission scripts directly:
//
//	0  every analysed flow meets its deadline
//	1  the analysis succeeded but some flow misses its deadline
//	2  the configuration is invalid (bad JSON, malformed flow set, bad flags)
//	3  no verdict: the analysis diverged (for the trajectory analysis, a
//	   busy period's Bslow load ≥ 1, possible with every node below 1),
//	   overflowed the time domain, or was cut off by -timeout
//	4  internal error (a bug in the analyser, not in the input)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"trajan/internal/ef"
	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/report"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajan:", err)
	}
	os.Exit(code)
}

// exitCode maps the run outcome to the documented process exit code.
func exitCode(feasible bool, err error) int {
	switch {
	case err == nil:
		if feasible {
			return 0
		}
		return 1
	case errors.Is(err, model.ErrInvalidConfig):
		return 2
	case errors.Is(err, model.ErrUnstable),
		errors.Is(err, model.ErrOverflow),
		errors.Is(err, model.ErrCanceled):
		return 3
	default:
		// ErrInternal and anything unclassified: assume a bug, not input.
		return 4
	}
}

func run(args []string, out io.Writer) (int, error) {
	feasible, err := runAnalysis(args, out)
	return exitCode(feasible, err), err
}

func runAnalysis(args []string, out io.Writer) (bool, error) {
	fl := flag.NewFlagSet("trajan", flag.ContinueOnError)
	var (
		configPath  = fl.String("config", "", "flow-set JSON (default: the paper's example)")
		backendName = fl.String("backend", "all", "analysis backend: all|trajectory|holistic|netcalc|combined; all tabulates the three concrete backends with the verdict following trajectory, any other value prints that backend's bounds with per-flow provenance and makes the verdict follow it (see docs/BACKENDS.md)")
		useEF       = fl.Bool("ef", false, "EF-class analysis (Property 3): analyse EF flows, charge AF/BE as non-preemption blocking")
		detail      = fl.Bool("detail", false, "print the per-flow interference breakdown")
		explainFlow = fl.String("explain", "", "print the full bound derivation for this flow name")
		sensitivity = fl.Bool("sensitivity", false, "probe each flow's period and cost headroom (requires deadlines)")
		timeout     = fl.Duration("timeout", 0, "abort the analysis after this duration (exit 3); 0 disables the budget")
		admitPath   = fl.String("admit", "", "churn-trace JSON: replay add/remove/update events through the warm admission core, judged under -backend")
		routeFlag   = fl.String("route", "", "with -admit: \"auto\" re-routes every add over the k-shortest paths of -topology, admitting on the best feasible one (empty or \"manual\": source routing, paths taken as submitted)")
		topoSpec    = fl.String("topology", "", "with -route auto: the network graph candidate paths are enumerated over — a spec (line:N|ring:N|star:N|grid:RxC|clos:SxLxH|paper) or a topology JSON file")
		routeK      = fl.Int("route-k", 0, "with -route auto: candidate-path fan-out (0 = 4)")
		workers     = fl.Int("workers", 0, "what-if and combined-backend parallelism, and the cap for analyses large enough to fan out (0 = GOMAXPROCS, 1 = serial)")
		tracePath   = fl.String("trace", "", "write a structured JSON event log of the analysis to this file (see docs/OBSERVABILITY.md)")
		traceReport = fl.String("trace-report", "", "render a previously written -trace log as a bound-decomposition report and exit")
		metricsAddr = fl.String("metrics-addr", "", "serve /metrics (Prometheus text) and /vars (JSON) on this address for the duration of the run")
		metricsDump = fl.Bool("metrics-dump", false, "print the metrics registry in Prometheus text format after the run")
		cpuProfile  = fl.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fl.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fl.Parse(args); err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	if *traceReport != "" {
		return runTraceReport(*traceReport, out)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *workers < 0 {
		return false, model.Errorf(model.ErrInvalidConfig, "-workers must be >= 0")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return false, model.Classify(model.ErrInvalidConfig, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return false, model.Classify(model.ErrInvalidConfig, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trajan: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "trajan: memprofile:", err)
			}
		}()
	}

	opt := trajectory.Options{Parallelism: *workers}

	var tracers []obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return false, model.Classify(model.ErrInvalidConfig, err)
		}
		jt := obs.NewJSONTracer(f)
		tracers = append(tracers, jt)
		defer func() {
			if err := jt.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "trajan: trace:", err)
			}
			// A failed flush on close would silently truncate the log;
			// report it like a tracer write error.
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trajan: trace:", err)
			}
		}()
	}
	if *metricsAddr != "" || *metricsDump {
		metrics := obs.NewMetrics()
		metrics.GaugeFunc("trajan_scratch_pool_news", trajectory.ScratchPoolNews)
		tracers = append(tracers, metrics)
		if *metricsAddr != "" {
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				return false, model.Classify(model.ErrInvalidConfig, err)
			}
			// StartHTTP sets slowloris-safe timeouts and its stop function
			// drains in-flight scrapes (Shutdown, not Close) and surfaces
			// serve errors instead of dropping them.
			stop := serve.StartHTTP(ln, metrics.Handler(), func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "trajan: metrics: "+format+"\n", a...)
			})
			defer stop(2 * time.Second)
			fmt.Fprintf(os.Stderr, "trajan: serving metrics on http://%s/metrics\n", ln.Addr())
		}
		if *metricsDump {
			defer func() {
				fmt.Fprintln(out)
				if err := metrics.WritePrometheus(out); err != nil {
					fmt.Fprintln(os.Stderr, "trajan: metrics:", err)
				}
			}()
		}
	}
	opt.Tracer = obs.Tee(tracers...)

	var topo *model.Topology
	switch *routeFlag {
	case "", "manual":
		if *topoSpec != "" || *routeK != 0 {
			return false, model.Errorf(model.ErrInvalidConfig, "-topology and -route-k need -route auto")
		}
	case "auto":
		if *admitPath == "" {
			return false, model.Errorf(model.ErrInvalidConfig, "-route auto needs -admit")
		}
		if *topoSpec == "" {
			return false, model.Errorf(model.ErrInvalidConfig, "-route auto needs -topology")
		}
		var terr error
		if topo, terr = workload.LoadTopology(*topoSpec); terr != nil {
			return false, terr
		}
	default:
		return false, model.Errorf(model.ErrInvalidConfig, "-route %q (want auto or manual)", *routeFlag)
	}

	backends, err := selectBackends(*backendName)
	if err != nil {
		return false, err
	}
	backendSet := false
	fl.Visit(func(f *flag.Flag) { backendSet = backendSet || f.Name == "backend" })
	if backendSet && *useEF {
		return false, model.Errorf(model.ErrInvalidConfig, "-backend and -ef are exclusive; use -backend with pure-FIFO sets and -ef for the Property-3 pipeline")
	}

	if *admitPath != "" {
		if *useEF {
			return false, model.Errorf(model.ErrInvalidConfig, "-admit and -ef are exclusive; admission judges pure-FIFO sets, use -ef for the Property-3 pipeline")
		}
		if backendSet && len(backends) > 1 {
			return false, model.Errorf(model.ErrInvalidConfig, "-admit judges under one backend; -backend all is a bound-table selection")
		}
		return runAdmit(ctx, *admitPath, opt, backends[0], topo, *routeK, out)
	}

	fs, originals, err := loadFlowSet(*configPath)
	if err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	if *useEF {
		return runEF(ctx, fs, opt, out)
	}
	wasSplit := fs.N() != len(originals)
	verdictBackend := backends[0]
	if wasSplit && verdictBackend != feasibility.BackendTrajectory {
		var split []string
		for _, f := range fs.Flows {
			if p, ok := f.Parent(); ok && !slices.Contains(split, originals[p].Name) {
				split = append(split, originals[p].Name)
			}
		}
		return false, model.Errorf(model.ErrInvalidConfig,
			"-backend %s would bound only the Assumption-1 fragments of %s, not the configured flows; use -backend all or trajectory",
			verdictBackend, strings.Join(split, ", "))
	}
	if (*explainFlow != "" || *detail) && (verdictBackend != feasibility.BackendTrajectory || wasSplit) {
		return false, model.Errorf(model.ErrInvalidConfig, "-explain and -detail need -backend all or trajectory on an unsplit set")
	}

	blocks := make([]boundBlock, 0, len(backends))
	for _, b := range backends {
		bopt := opt
		if b != verdictBackend {
			// Only the verdict backend traces: the baselines' provenance
			// would overwrite its bound-term gauges.
			bopt.Tracer = nil
		}
		if b == feasibility.BackendTrajectory && wasSplit {
			// Some configured flow violated Assumption 1 and was split;
			// report the jitter-chained bounds of the ORIGINAL flows
			// (the naive per-fragment bounds are not delivery
			// guarantees for them).
			split, err := trajectory.AnalyzeSplit(fs, bopt)
			if err != nil {
				return false, fmt.Errorf("trajectory (split) analysis: %w", err)
			}
			bounds, err := split.BoundsFor(originals)
			if err != nil {
				return false, err
			}
			blocks = append(blocks, boundBlock{"trajectory*", originals, &feasibility.BackendResult{Backend: b, Bounds: bounds}})
			defer fmt.Fprintln(out,
				"\n* some flows were split to satisfy Assumption 1; trajectory rows are jitter-chained bounds for the configured flows")
			continue
		}
		res, err := feasibility.AnalyzeBackend(ctx, fs, b, bopt)
		if err != nil {
			return false, fmt.Errorf("%s backend: %w", b, err)
		}
		blocks = append(blocks, boundBlock{string(b), fs.Flows, res})
	}
	if err := renderBounds(out, fs, blocks); err != nil {
		return false, err
	}
	verdict := blocks[0]
	allFeasible, _ := feasibility.SetVerdict(verdict.flows, verdict.res.Bounds)
	trajRes := verdict.res.Trajectory // set whenever -explain or -detail passed the check above

	if *explainFlow != "" {
		idx := -1
		for i, f := range fs.Flows {
			if f.Name == *explainFlow {
				idx = i
			}
		}
		if idx < 0 {
			return false, model.Errorf(model.ErrInvalidConfig, "unknown flow %q", *explainFlow)
		}
		text, err := trajRes.Explain(fs, idx)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, text)
	}

	if *detail {
		fmt.Fprintln(out)
		for _, d := range trajRes.Details {
			f := fs.Flows[d.Flow]
			fmt.Fprintf(out, "%s: bound=%d Bslow=%d t*=%d slow=node %d δ=%d\n",
				f.Name, d.Bound, d.Bslow, d.CriticalT, d.SlowNode, d.Delta)
			for _, term := range d.Interference {
				dir := "same"
				if !term.SameDirection {
					dir = "reverse"
				}
				fmt.Fprintf(out, "  ← %-8s A=%-5d packets=%d × C=%d (%s direction)\n",
					fs.Flows[term.Flow].Name, term.A, term.Packets, term.CSlow, dir)
			}
		}
	}

	if *sensitivity {
		sens, err := feasibility.AnalyzeSensitivity(fs, opt)
		if err != nil {
			return false, fmt.Errorf("sensitivity analysis: %w", err)
		}
		st := report.NewTable("Sensitivity (trajectory bounds)",
			"flow", "period", "min period", "cost headroom %")
		for _, s := range sens {
			f := fs.Flows[s.Flow]
			st.AddRow(f.Name, f.Period, s.MinPeriod, s.MaxCostScalePercent)
		}
		fmt.Fprintln(out)
		if err := st.Render(out); err != nil {
			return false, err
		}
	}
	return allFeasible, nil
}

// selectBackends maps -backend onto the backends whose rows the bound
// table prints, the verdict backend first.
func selectBackends(name string) ([]feasibility.Backend, error) {
	if name == "all" {
		return []feasibility.Backend{feasibility.BackendTrajectory, feasibility.BackendHolistic, feasibility.BackendNetcalc}, nil
	}
	b, err := feasibility.ParseBackend(name)
	if err != nil {
		return nil, model.Errorf(model.ErrInvalidConfig, "-backend %q: want all, trajectory, holistic, netcalc or combined", name)
	}
	return []feasibility.Backend{b}, nil
}

// boundBlock is one backend's rows of the bound table.
type boundBlock struct {
	label string // the method column, or the backend of a split chain
	flows []*model.Flow
	res   *feasibility.BackendResult // nil Jitters: chained bounds, no jitter
}

// renderBounds prints the bound table. Under -backend all each row
// names its method; a single backend's table instead carries per-flow
// provenance: which backend produced each bound and, for combined, its
// margin over the best losing candidate.
func renderBounds(out io.Writer, fs *model.FlowSet, blocks []boundBlock) error {
	single := len(blocks) == 1
	title := fmt.Sprintf("Worst-case end-to-end response times (%d flows, max utilization %.2f)",
		fs.N(), fs.MaxUtilization())
	cols := []string{"flow", "deadline", "method", "bound", "jitter", "feasible"}
	if single {
		title = fmt.Sprintf("Worst-case end-to-end response times, %s backend (%d flows, max utilization %.2f)",
			blocks[0].res.Backend, fs.N(), fs.MaxUtilization())
		cols = []string{"flow", "deadline", "bound", "jitter", "backend", "margin", "feasible"}
	}
	tab := report.NewTable(title, cols...)
	for _, bl := range blocks {
		r := bl.res
		for i, f := range bl.flows {
			var bound, jit any = r.Bounds[i], "-"
			if r.Unbounded(i) {
				bound = "inf"
			} else if r.Jitters != nil {
				jit = r.Jitters[i]
			}
			feasible := f.Deadline <= 0 || r.Bounds[i] <= f.Deadline
			if !single {
				tab.AddRow(f.Name, f.Deadline, bl.label, bound, jit, feasible)
				continue
			}
			backend, margin := bl.label, any("-")
			if r.Backend == feasibility.BackendCombined {
				backend = string(r.Provenance[i].Winner)
				if !r.Unbounded(i) {
					margin = r.Provenance[i].Margin
				}
			}
			tab.AddRow(f.Name, f.Deadline, bound, jit, backend, margin, feasible)
		}
	}
	return tab.Render(out)
}

// churnTrace is the -admit input: a network and an ordered event log
// of flow arrivals, departures and contract renegotiations.
type churnTrace struct {
	Network model.NetworkConfig `json:"network"`
	Events  []churnEvent        `json:"events"`
}

// churnEvent is one trace entry. Op is "add" (Flow required), "remove"
// (Name required) or "update" (Flow required; matched by its name).
type churnEvent struct {
	Op   string            `json:"op"`
	Name string            `json:"name,omitempty"`
	Flow *model.FlowConfig `json:"flow,omitempty"`
}

// runAdmit replays a churn trace through the admission core
// (feasibility.Controller): every add is an admission test and every
// update a renegotiation in place (delta re-analysis, undone on
// refusal), every remove a release. backend judges each verdict. The
// exit verdict reports whether the final admitted set meets all
// deadlines. A non-nil topo validates every submitted path and turns on
// route=auto admission: each add is placed on the best feasible of its
// routeK shortest candidate paths.
func runAdmit(ctx context.Context, path string, opt trajectory.Options, backend feasibility.Backend, topo *model.Topology, routeK int, out io.Writer) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	var trace churnTrace
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&trace); err != nil {
		return false, model.Errorf(model.ErrInvalidConfig, "admit: decoding trace: %w", err)
	}
	net := model.Network{Lmin: trace.Network.Lmin, Lmax: trace.Network.Lmax}
	c, err := feasibility.NewController(net, opt, backend, topo, routeK)
	if err != nil {
		return false, err
	}

	tab := report.NewTable(fmt.Sprintf("Admission trace replay (%s, warm re-analysis)", backend),
		"#", "op", "flow", "decision", "flows", "min slack")
	allFeasible := true
	for k, ev := range trace.Events {
		var d feasibility.Decision
		switch ev.Op {
		case "add", "update":
			if ev.Flow == nil {
				return false, model.Errorf(model.ErrInvalidConfig, "admit: event %d: %s needs a flow", k, ev.Op)
			}
			f, berr := ev.Flow.Build()
			if berr != nil {
				return false, model.Errorf(model.ErrInvalidConfig, "admit: event %d: %w", k, berr)
			}
			if ev.Op == "add" {
				d, err = c.Admit(ctx, f, topo != nil)
			} else {
				d, err = c.Renegotiate(ctx, f, false)
			}
		case "remove":
			d, err = c.Release(ctx, ev.Name)
		default:
			return false, model.Errorf(model.ErrInvalidConfig, "admit: event %d: unknown op %q", k, ev.Op)
		}
		if err != nil {
			return false, fmt.Errorf("admit: event %d: %w", k, err)
		}
		d.Emit(opt.Tracer, "")
		row := d.Outcome
		switch {
		case row == "rejected":
			row += " (" + d.Reason + ")"
		case ev.Op == "update":
			row = "updated"
		case ev.Op == "remove":
			row = "removed"
		}
		if d.Outcome != "rejected" {
			allFeasible = d.AllFeasible
		}
		slack := "-"
		if d.MinSlack < model.TimeInfinity && d.Reason != "no feasible route" {
			slack = fmt.Sprint(d.MinSlack)
		}
		tab.AddRow(k, ev.Op, d.Flow, row, c.FlowSet().N(), slack)
	}
	if err := tab.Render(out); err != nil {
		return false, err
	}
	return allFeasible, nil
}

// runTraceReport renders a -trace log as the bound-decomposition report.
// A log whose decompositions fail to re-sum to their reported bounds is
// corrupt input: the report is still written (mismatches flagged inline)
// and the process exits with the invalid-configuration code.
func runTraceReport(path string, out io.Writer) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	if err := report.RenderTrace(out, events); err != nil {
		return false, model.Classify(model.ErrInvalidConfig, err)
	}
	return true, nil
}

func runEF(ctx context.Context, fs *model.FlowSet, opt trajectory.Options, out io.Writer) (bool, error) {
	res, err := ef.AnalyzeContext(ctx, fs, opt)
	if err != nil {
		return false, fmt.Errorf("EF analysis: %w", err)
	}
	tab := report.NewTable("EF-class bounds (Property 3)",
		"flow", "deadline", "delta", "trajectory", "holistic", "feasible")
	allFeasible := true
	for k, idx := range res.EFIndex {
		f := fs.Flows[idx]
		feasible := f.Deadline == 0 || res.Trajectory.Bounds[k] <= f.Deadline
		if !feasible {
			allFeasible = false
		}
		tab.AddRow(f.Name, f.Deadline, res.Deltas[k],
			res.Trajectory.Bounds[k], res.Holistic.Bounds[k], feasible)
	}
	return allFeasible, tab.Render(out)
}

func loadFlowSet(path string) (*model.FlowSet, []*model.Flow, error) {
	if path == "" {
		fs := model.PaperExample()
		return fs, fs.Flows, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return model.ParseFlowSetWithOriginals(f)
}
