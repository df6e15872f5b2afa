// Command trajand is the long-running admission-control daemon: an
// HTTP/JSON service over warm-start trajectory.Analyzers (package
// internal/serve). Admit, release and renegotiate decisions are
// serialized through per-tenant single-writer mutation loops with
// delta re-analysis; bounds reads are served lock-free from immutable
// snapshots; concurrent what-if probes are coalesced into batched
// copy-on-write forks. See docs/SERVING.md for the API reference.
//
// Usage:
//
//	trajand -addr :8080 [-lmin 1 -lmax 1 | -preload flows.json]
//	        [-topology clos:4x4x4|topo.json] [-route-k 4]
//	        [-journal-dir DIR] [-max-tenants N] [-checkpoint-every N]
//	        [-backend trajectory|holistic|netcalc|combined]
//	        [-workers N] [-queue 64]
//	        [-request-timeout 5s] [-drain-timeout 10s]
//	        [-trace events.json]
//	trajand -loadgen churn.json -target http://host:8080
//	        [-clients 8] [-repeat 4] [-tenants a,b,c]
//
// The first form serves until SIGINT/SIGTERM, then shuts down
// gracefully: new requests are refused (503), queued decisions drain,
// in-flight HTTP exchanges finish within -drain-timeout. /metrics and
// /vars expose the obs registry; -trace streams the full engine event
// log (admissions included) as JSON Lines, and a failed trace write
// fails the run. With -journal-dir the daemon is multi-tenant and
// crash-safe: every admission decision is fsync'd to a per-tenant
// journal under /v1/{tenant}/... before it is acknowledged, tenants
// rehydrate from checkpoint+journal on first touch, and an unwritable
// journal shuts the daemon down with a nonzero exit rather than
// serving undurable admissions.
//
// The second form replays a churn trace (the `cmd/trajan -admit`
// format, e.g. cmd/trajan/testdata/churn.json) against a running
// daemon from -clients concurrent clients, -repeat times each, with
// flow names namespaced per client — the benchmarking loadgen.
// -tenants spreads the clients round-robin over the named tenants.
//
// Exit codes: 0 clean run, 2 invalid configuration or flags, 3 the
// run was canceled, 4 internal error (including journal or trace-log
// write failures).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajand:", err)
	}
	os.Exit(code)
}

// exitCode maps a run outcome to the documented process exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, model.ErrInvalidConfig):
		return 2
	case errors.Is(err, model.ErrCanceled):
		return 3
	default:
		return 4
	}
}

// onReady, when set (tests), receives the bound listener address once
// the service is accepting requests.
var onReady func(addr net.Addr)

func run(ctx context.Context, args []string, out io.Writer) (int, error) {
	err := runDaemon(ctx, args, out)
	return exitCode(err), err
}

func runDaemon(ctx context.Context, args []string, out io.Writer) (retErr error) {
	fl := flag.NewFlagSet("trajand", flag.ContinueOnError)
	var (
		addr        = fl.String("addr", ":8080", "listen address of the admission API")
		lmin        = fl.Int64("lmin", 1, "network minimum link delay (ignored with -preload)")
		lmax        = fl.Int64("lmax", 1, "network maximum link delay (ignored with -preload)")
		preload     = fl.String("preload", "", "flow-set JSON installed at startup without an admission test")
		journalDir  = fl.String("journal-dir", "", "multi-tenant crash-safe mode: per-tenant decision journals under this directory")
		maxTenants  = fl.Int("max-tenants", 0, "resident tenant bound before LRU eviction (0 = 16; needs -journal-dir)")
		ckptEvery   = fl.Int("checkpoint-every", 0, "journal records between flow-set checkpoints (0 = 64)")
		topoSpec    = fl.String("topology", "", "daemon topology: a spec (line:N|ring:N|star:N|grid:RxC|clos:SxLxH|paper) or a topology JSON file; enables manual-path validation and route=auto admission")
		routeK      = fl.Int("route-k", 0, "route=auto candidate-path fan-out (0 = 4; needs -topology)")
		backendName = fl.String("backend", "", "analysis backend the admission verdicts follow: trajectory|holistic|netcalc|combined (empty = warm trajectory; see docs/BACKENDS.md)")
		workers     = fl.Int("workers", 0, "what-if and combined-backend parallelism, and the cap for analyses large enough to fan out (0 = GOMAXPROCS)")
		queue       = fl.Int("queue", 0, "mutation/what-if queue depth before 429 backpressure (0 = 64)")
		reqTimeout  = fl.Duration("request-timeout", 5*time.Second, "per-decision analysis budget (0 disables)")
		drain       = fl.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		tracePath   = fl.String("trace", "", "write the JSON event log (engine + admission + HTTP events) to this file")
		loadgenPath = fl.String("loadgen", "", "loadgen mode: replay this churn trace against -target and exit")
		target      = fl.String("target", "", "loadgen: base URL of the daemon under load")
		clients     = fl.Int("clients", 8, "loadgen: concurrent clients")
		repeat      = fl.Int("repeat", 1, "loadgen: trace replays per client")
		tenants     = fl.String("tenants", "", "loadgen: comma-separated tenant names to spread clients over")
	)
	if err := fl.Parse(args); err != nil {
		return model.Classify(model.ErrInvalidConfig, err)
	}

	if *loadgenPath != "" {
		return runLoadgen(ctx, *loadgenPath, *target, *clients, *repeat, *tenants, out)
	}

	opt := trajectory.Options{Smax: trajectory.SmaxPrefixFixpoint, Parallelism: *workers}
	if *workers < 0 {
		return model.Errorf(model.ErrInvalidConfig, "-workers must be >= 0")
	}
	if *preload != "" && *journalDir != "" {
		return model.Errorf(model.ErrInvalidConfig, "-preload and -journal-dir are mutually exclusive")
	}

	metrics := obs.NewMetrics()
	metrics.GaugeFunc("trajan_scratch_pool_news", trajectory.ScratchPoolNews)
	tracers := []obs.Tracer{metrics}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return model.Classify(model.ErrInvalidConfig, err)
		}
		jt := obs.NewJSONTracer(f)
		tracers = append(tracers, jt)
		defer func() {
			// A failed flush on close silently truncates the log; surface
			// both the tracer's write error and the file's close error as
			// run failures (exit 4), not just stderr noise.
			for _, err := range []error{jt.Err(), f.Close()} {
				if err == nil {
					continue
				}
				err = model.Errorf(model.ErrInternal, "trace: %w", err)
				if retErr == nil {
					retErr = err
				} else {
					fmt.Fprintln(os.Stderr, "trajand:", err)
				}
			}
		}()
	}

	cfg := serve.Config{
		Network:         model.Network{Lmin: model.Time(*lmin), Lmax: model.Time(*lmax)},
		Options:         opt,
		QueueDepth:      *queue,
		RequestTimeout:  *reqTimeout,
		CheckpointEvery: *ckptEvery,
		Metrics:         metrics,
	}
	if *backendName != "" {
		backend, err := feasibility.ParseBackend(*backendName)
		if err != nil {
			return err
		}
		cfg.Backend = backend
	}
	if *routeK != 0 && *topoSpec == "" {
		return model.Errorf(model.ErrInvalidConfig, "-route-k needs -topology")
	}
	if *topoSpec != "" {
		topo, err := workload.LoadTopology(*topoSpec)
		if err != nil {
			return err
		}
		cfg.Topology = topo
		cfg.RouteK = *routeK
	}
	cfg.Options.Tracer = obs.Tee(tracers...)
	if *preload != "" {
		f, err := os.Open(*preload)
		if err != nil {
			return model.Classify(model.ErrInvalidConfig, err)
		}
		fs, err := model.ParseFlowSet(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Network = fs.Net
		cfg.Preload = fs.Flows
	}

	// Build the serving core: a multi-tenant registry when journaling,
	// otherwise the single warm server (exact pre-registry behavior,
	// including unlabeled metrics).
	var (
		handler  http.Handler
		shutdown func(context.Context) error
		banner   string
	)
	serveCtx := ctx
	jfail := make(chan error, 1)
	if *journalDir != "" {
		var jcancel context.CancelFunc
		serveCtx, jcancel = context.WithCancel(ctx)
		defer jcancel()
		reg, err := serve.NewRegistry(serve.RegistryConfig{
			Template:   cfg,
			JournalDir: *journalDir,
			MaxActive:  *maxTenants,
			OnJournalFailure: func(tenant string, err error) {
				select {
				case jfail <- model.Errorf(model.ErrInternal, "tenant %s: journal failed: %w", tenant, err):
				default:
				}
				jcancel() // begin graceful shutdown; the run exits nonzero
			},
		})
		if err != nil {
			return err
		}
		handler = reg.Handler()
		shutdown = reg.Close
		banner = fmt.Sprintf("journal=%s max-tenants=%d", *journalDir, *maxTenants)
	} else {
		srv, err := serve.New(cfg)
		if err != nil {
			return err
		}
		handler = srv.Handler()
		shutdown = func(ctx context.Context) error {
			if err := srv.Shutdown(ctx); err != nil {
				return err
			}
			sn := srv.Snapshot()
			fmt.Fprintf(out, "trajand: drained (seq=%d flows=%d)\n", sn.Seq, sn.N())
			return nil
		}
		banner = fmt.Sprintf("flows=%d", srv.Snapshot().N())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// The service core is already running; stop it before failing.
		_ = shutdown(context.Background())
		return model.Classify(model.ErrInvalidConfig, err)
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "trajand: "+format+"\n", a...)
	}
	stopHTTP := serve.StartHTTP(ln, handler, logf)
	fmt.Fprintf(out, "trajand: serving admission API on http://%s (%s)\n", ln.Addr(), banner)
	if onReady != nil {
		onReady(ln.Addr())
	}

	<-serveCtx.Done()
	fmt.Fprintf(out, "trajand: shutting down (drain %v)\n", *drain)
	// Stop the HTTP front first so in-flight exchanges finish, then
	// drain the decision loops.
	httpErr := stopHTTP(*drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := shutdown(drainCtx); err != nil {
		return model.Errorf(model.ErrInternal, "drain: %w", err)
	}
	if httpErr != nil {
		return model.Errorf(model.ErrInternal, "http: %w", httpErr)
	}
	// A journal failure initiated this shutdown: the daemon must exit
	// nonzero even though the drain itself was clean.
	select {
	case jerr := <-jfail:
		return jerr
	default:
	}
	fmt.Fprintf(out, "trajand: stopped\n")
	return nil
}

// runLoadgen replays a churn trace against a running daemon.
func runLoadgen(ctx context.Context, path, target string, clients, repeat int, tenants string, out io.Writer) error {
	if target == "" {
		return model.Errorf(model.ErrInvalidConfig, "-loadgen needs -target")
	}
	trace, err := serve.LoadTrace(path)
	if err != nil {
		return err
	}
	var tenantList []string
	if tenants != "" {
		for _, t := range strings.Split(tenants, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tenantList = append(tenantList, t)
			}
		}
	}
	stats, err := serve.RunLoadgen(ctx, serve.LoadgenConfig{
		BaseURL: target,
		Trace:   trace,
		Clients: clients,
		Repeat:  repeat,
		Tenants: tenantList,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	rps := float64(stats.Requests.Load()) / stats.Elapsed.Seconds()
	fmt.Fprintf(out, "loadgen: %d clients x %d replays: %d requests in %v (%.0f req/s)\n",
		clients, repeat, stats.Requests.Load(), stats.Elapsed.Round(time.Millisecond), rps)
	fmt.Fprintf(out, "loadgen: admitted=%d rejected=%d released=%d probes=%d retries=%d errors=%d final_flows=%d\n",
		stats.Admitted.Load(), stats.Rejected.Load(), stats.Released.Load(),
		stats.Probes.Load(), stats.Retries.Load(), stats.Errors.Load(), stats.FinalStatus.Flows)
	for _, tenant := range tenantList {
		h := stats.FinalTenants[tenant]
		fmt.Fprintf(out, "loadgen: tenant=%s final_seq=%d final_flows=%d\n", tenant, h.Seq, h.Flows)
	}
	return nil
}
