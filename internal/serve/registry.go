package serve

import (
	"context"
	"net/http"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/obs"
)

// RegistryConfig parameterizes a multi-tenant Registry.
type RegistryConfig struct {
	// Template is the per-tenant server configuration: network envelope,
	// analyzer options, queue depths, timeouts, metrics. The per-tenant
	// fields (Tenant, Journal, Preload, restoreSeq, OnPanic) are managed
	// by the registry and must be left zero.
	Template Config
	// JournalDir is the durability root: tenant t journals under
	// JournalDir/t. Empty (with a nil JournalFS) disables durability —
	// tenants are volatile, evicted state is lost.
	JournalDir string
	// JournalFS overrides the journal filesystem (fault injection,
	// tests). Nil selects the real one.
	JournalFS journal.FS
	// SegmentMaxRecords is passed through to each tenant journal.
	SegmentMaxRecords int
	// MaxActive bounds resident tenants: opening one more evicts the
	// least-recently-touched (graceful drain, journal closed; the next
	// touch rehydrates it from checkpoint+tail). Zero selects 16.
	MaxActive int
	// DefaultTenant names the tenant behind the unprefixed /v1/...
	// routes, preserving the single-tenant API. Empty selects "default".
	DefaultTenant string
	// OnJournalFailure, when non-nil, fires at most once per tenant
	// incarnation when that tenant's journal fails — the daemon's
	// exit-nonzero hook.
	OnJournalFailure func(tenant string, err error)
}

func (c RegistryConfig) maxActive() int {
	if c.MaxActive <= 0 {
		return 16
	}
	return c.MaxActive
}

func (c RegistryConfig) defaultTenant() string {
	if c.DefaultTenant == "" {
		return "default"
	}
	return c.DefaultTenant
}

func (c RegistryConfig) journaling() bool {
	return c.JournalDir != "" || c.JournalFS != nil
}

func (c RegistryConfig) journalRoot() string {
	if c.JournalDir == "" {
		return "journal"
	}
	return c.JournalDir
}

// tenantHandle is one tenant's slot in the registry. srv is swapped
// atomically on rehydrate and quarantine-restart, so request paths read
// it lock-free: during a restart they keep getting the quarantined
// server (reads serve the pre-crash snapshot, mutations are refused)
// until the recovered one is stored — never a partially built one.
type tenantHandle struct {
	name string
	srv  atomic.Pointer[Server]
	// lc serializes lifecycle transitions (open, evict, restart, close).
	// jl is guarded by lc.
	lc sync.Mutex
	jl *journal.Journal
	// touched is the registry clock of the last request; guarded by
	// Registry.mu.
	touched int64
	// evicting marks a scheduled eviction; guarded by Registry.mu.
	evicting bool
}

// Registry serves many isolated tenants, each with its own warm
// Analyzer, single-writer loop and durable journal, behind one
// /v1/{tenant}/... HTTP surface. Tenants hydrate lazily on first touch
// (from their journal when one exists), idle tenants are LRU-evicted,
// and a panicking tenant is quarantined and restarted from its journal
// without disturbing the others. Create with NewRegistry, mount
// Handler, stop with Close.
type Registry struct {
	cfg RegistryConfig

	mu      sync.Mutex
	tenants map[string]*tenantHandle
	clock   int64
	closed  bool
	wg      sync.WaitGroup // background evictions and restarts
}

// NewRegistry validates the template and returns an empty registry; no
// tenant is hydrated until first touched.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	// Every tenant's server starts with this controller configuration,
	// so an invalid one (bad network, backend, unsound Smax estimator)
	// fails here rather than on each tenant's first touch.
	t := cfg.Template
	if _, err := feasibility.NewController(t.Network, t.Options, t.Backend, t.Topology, t.RouteK); err != nil {
		return nil, err
	}
	if cfg.Template.Journal != nil || cfg.Template.Tenant != "" || len(cfg.Template.Preload) > 0 {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"serve: registry template must not set Journal, Tenant or Preload")
	}
	r := &Registry{cfg: cfg, tenants: make(map[string]*tenantHandle)}
	if m := cfg.Template.Metrics; m != nil {
		m.GaugeFunc("trajan_tenants_active", func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			var n int64
			for _, h := range r.tenants {
				if h.srv.Load() != nil {
					n++
				}
			}
			return n
		})
	}
	return r, nil
}

// validTenantName accepts [A-Za-z0-9_-]{1,64} with optional interior
// dots — never a leading dot, so a tenant name cannot traverse the
// journal root.
func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_':
		case c == '.' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (r *Registry) emitTenant(tenant, op, outcome string, flows int) {
	if tr := r.cfg.Template.Options.Tracer; tr != nil {
		tr.Emit(obs.Event{Type: obs.EvTenant, Op: op, Outcome: outcome, Tenant: tenant, Flows: flows})
	}
}

// Server returns (hydrating if needed) the tenant's serving core. The
// resident fast path is lock-free.
func (r *Registry) Server(tenant string) (*Server, error) {
	if !validTenantName(tenant) {
		return nil, model.Errorf(model.ErrInvalidConfig, "serve: invalid tenant name %q", tenant)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrShuttingDown
	}
	h, ok := r.tenants[tenant]
	if !ok {
		h = &tenantHandle{name: tenant}
		r.tenants[tenant] = h
	}
	r.clock++
	h.touched = r.clock
	r.mu.Unlock()

	if s := h.srv.Load(); s != nil {
		return s, nil
	}
	h.lc.Lock()
	if s := h.srv.Load(); s != nil { // raced with another opener
		h.lc.Unlock()
		return s, nil
	}
	srv, jl, err := r.open(h)
	if err != nil {
		h.lc.Unlock()
		r.emitTenant(tenant, "open", "error", 0)
		return nil, err
	}
	h.jl = jl
	h.srv.Store(srv)
	h.lc.Unlock()
	r.maybeEvict(h)
	return srv, nil
}

// open builds a tenant's server: journal open + deterministic replay +
// warm server construction. Called with h.lc held.
func (r *Registry) open(h *tenantHandle) (*Server, *journal.Journal, error) {
	cfg := r.cfg.Template
	cfg.Tenant = h.name
	cfg.OnPanic = nil
	op := "open"
	var jl *journal.Journal
	if r.cfg.journaling() {
		var rec *journal.Recovered
		var err error
		jl, rec, err = journal.Open(path.Join(r.cfg.journalRoot(), h.name), journal.Options{
			FS:                r.cfg.JournalFS,
			SegmentMaxRecords: r.cfg.SegmentMaxRecords,
			Tracer:            cfg.Options.Tracer,
			Tenant:            h.name,
		})
		if err != nil {
			return nil, nil, err
		}
		if rec.HasState() {
			op = "rehydrate"
			netCfg, flowCfgs, rerr := rec.Replay()
			if rerr != nil {
				_ = jl.Close()
				return nil, nil, rerr
			}
			if rec.Checkpoint != nil {
				// The checkpointed envelope is authoritative for the
				// tenant's admitted contracts, even if the template moved.
				cfg.Network = model.Network{Lmin: netCfg.Lmin, Lmax: netCfg.Lmax}
			}
			for i := range flowCfgs {
				f, berr := flowCfgs[i].Build()
				if berr != nil {
					_ = jl.Close()
					return nil, nil, model.Errorf(model.ErrInternal,
						"serve: tenant %s: journaled flow %q does not build: %v", h.name, flowCfgs[i].Name, berr)
				}
				cfg.Preload = append(cfg.Preload, f)
			}
			cfg.restoreSeq = rec.LastSeq()
		}
		cfg.Journal = jl
	}
	if fn := r.cfg.OnJournalFailure; fn != nil {
		tenant := h.name
		cfg.OnJournalFailure = func(err error) { fn(tenant, err) }
	}
	cfg.OnPanic = func(p any) { r.restart(h) }
	srv, err := New(cfg)
	if err != nil {
		if jl != nil {
			_ = jl.Close()
		}
		return nil, nil, err
	}
	r.emitTenant(h.name, op, "ok", len(cfg.Preload))
	return srv, jl, nil
}

// maybeEvict enforces MaxActive: when the just-hydrated tenant pushes
// the resident count over the bound, the least-recently-touched other
// resident drains in the background and its journal is closed; the next
// touch rehydrates it from disk.
func (r *Registry) maybeEvict(just *tenantHandle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	var active int
	for _, h := range r.tenants {
		if h.srv.Load() != nil && !h.evicting {
			active++
		}
	}
	for active > r.cfg.maxActive() {
		var victim *tenantHandle
		for _, h := range r.tenants {
			if h == just || h.evicting || h.srv.Load() == nil {
				continue
			}
			if victim == nil || h.touched < victim.touched {
				victim = h
			}
		}
		if victim == nil {
			return
		}
		victim.evicting = true
		active--
		r.wg.Add(1)
		go r.evict(victim)
	}
}

func (r *Registry) evict(h *tenantHandle) {
	defer r.wg.Done()
	h.lc.Lock()
	defer h.lc.Unlock()
	if s := h.srv.Load(); s != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
		h.srv.Store(nil)
	}
	if h.jl != nil {
		_ = h.jl.Close()
		h.jl = nil
	}
	r.mu.Lock()
	h.evicting = false
	r.mu.Unlock()
	r.emitTenant(h.name, "evict", "ok", 0)
}

// restart rebuilds a quarantined tenant from its journal in the
// background: the panicked server keeps answering reads from its last
// published snapshot (and refusing mutations) until the recovered
// server is atomically swapped in. Invoked via Config.OnPanic from the
// dying mutation loop.
func (r *Registry) restart(h *tenantHandle) {
	old := h.srv.Load()
	r.emitTenant(h.name, "quarantine", "ok", 0)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		h.lc.Lock()
		defer h.lc.Unlock()
		if old == nil || h.srv.Load() != old {
			return // evicted, closed, or already restarted
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = old.Shutdown(ctx) // the aborted loop has already exited; this drains fast
		cancel()
		if h.jl != nil {
			_ = h.jl.Close()
			h.jl = nil
		}
		srv, jl, err := r.open(h)
		if err != nil {
			// Unrecoverable (corrupt journal, invalid state): leave the
			// quarantined server in place — reads still work, mutations
			// stay refused — rather than flap.
			r.emitTenant(h.name, "restart", "error", 0)
			return
		}
		h.jl = jl
		h.srv.Store(srv)
		r.emitTenant(h.name, "restart", "ok", srv.Snapshot().N())
	}()
}

// Close shuts every tenant down gracefully and waits for background
// evictions/restarts. Accepted requests drain; new ones are refused.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	handles := make([]*tenantHandle, 0, len(r.tenants))
	for _, h := range r.tenants {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	var firstErr error
	for _, h := range handles {
		h.lc.Lock()
		if s := h.srv.Load(); s != nil {
			if err := s.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
			h.srv.Store(nil)
		}
		if h.jl != nil {
			if err := h.jl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			h.jl = nil
		}
		h.lc.Unlock()
	}
	r.wg.Wait()
	return firstErr
}

// Handler returns the multi-tenant mux. Every single-tenant route is
// kept as an alias for the default tenant (Go 1.22 literal patterns
// win over wildcards), so existing clients keep working unchanged:
//
//	POST /v1/{tenant}/admit         POST /v1/admit
//	POST /v1/{tenant}/release       POST /v1/release
//	POST /v1/{tenant}/renegotiate   POST /v1/renegotiate
//	POST /v1/{tenant}/whatif        POST /v1/whatif
//	GET  /v1/{tenant}/bounds        GET  /v1/bounds
//	GET  /v1/{tenant}/flows         GET  /v1/flows
//	GET  /v1/{tenant}/healthz       GET  /healthz
//
// plus /metrics and /vars when the template carries a Metrics registry.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	type route struct {
		method, name string
		pick         func(*Server) http.HandlerFunc
	}
	routes := []route{
		{"POST", "admit", func(s *Server) http.HandlerFunc { return s.handleAdmit }},
		{"POST", "release", func(s *Server) http.HandlerFunc { return s.handleRelease }},
		{"POST", "renegotiate", func(s *Server) http.HandlerFunc { return s.handleRenegotiate }},
		{"POST", "whatif", func(s *Server) http.HandlerFunc { return s.handleWhatIf }},
		{"GET", "bounds", func(s *Server) http.HandlerFunc { return s.handleBounds }},
		{"GET", "flows", func(s *Server) http.HandlerFunc { return s.handleFlows }},
		{"GET", "healthz", func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	}
	for _, rt := range routes {
		rt := rt
		serveTenant := func(w http.ResponseWriter, req *http.Request, tenant string) {
			s, err := r.Server(tenant)
			if err != nil {
				writeError(w, err)
				return
			}
			s.instrument(rt.name, rt.pick(s))(w, req)
		}
		mux.HandleFunc(rt.method+" /v1/{tenant}/"+rt.name, func(w http.ResponseWriter, req *http.Request) {
			serveTenant(w, req, req.PathValue("tenant"))
		})
		alias := rt.method + " /v1/" + rt.name
		if rt.name == "healthz" {
			alias = "GET /healthz"
		}
		mux.HandleFunc(alias, func(w http.ResponseWriter, req *http.Request) {
			serveTenant(w, req, r.cfg.defaultTenant())
		})
	}
	if m := r.cfg.Template.Metrics; m != nil {
		mh := m.Handler()
		mux.Handle("GET /metrics", mh)
		mux.Handle("GET /vars", mh)
	}
	return mux
}
