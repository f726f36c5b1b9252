// Package server hosts federations over HTTP/JSON and the binary wire:
// multi-tenant serving of the integrated view (queries, validated
// transactions, runtime attach/detach) with admission control,
// per-endpoint metrics and graceful drain. It is the transport layer
// over the engine's context-aware API — every request's context flows
// into RunContext/Validate/AttachContext, so a disconnected client stops
// burning CPU at the next scan-loop or solver-call boundary — and one
// table (classify, dispatch.go) maps the typed sentinels (ErrRejected,
// ErrUnknownClass, ErrUnknownObject, ErrUnknownTenant, ErrNoStores, ...)
// to both transports' responses without string matching.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interopdb"
)

// Config configures a Server.
type Config struct {
	// MaxInFlight bounds concurrently admitted /v1 requests; excess
	// requests are refused immediately with 429 and a Retry-After hint
	// rather than queued (queueing under overload only moves the
	// collapse point). 0 means DefaultMaxInFlight. /metrics and pprof
	// are exempt — observability must work exactly when the server is
	// saturated.
	MaxInFlight int
	// ReconcileInterval is the cadence of the background reconciler that
	// completes (or compensates) partially committed batches and closes
	// healed members' breakers. 0 means DefaultReconcileInterval;
	// negative disables the reconciler (tests drive Reconcile manually).
	ReconcileInterval time.Duration
	// DataDir, when set, makes every tenant durable: each owns a data
	// directory DataDir/<name> with a write-ahead log, checkpoints and a
	// member-recipe manifest, every acknowledged transaction is logged
	// before the response, and creating a tenant over an existing
	// directory recovers it (see durability.go). Empty serves
	// ephemerally, as before.
	DataDir string
	// CheckpointInterval is the background checkpoint cadence for
	// durable tenants. 0 means DefaultCheckpointInterval; negative
	// disables periodic checkpoints (graceful drain still writes the
	// final one). Ignored without DataDir.
	CheckpointInterval time.Duration
	// Logf receives request-level log lines; nil means silent.
	Logf func(format string, args ...any)
}

// DefaultMaxInFlight is the admission bound when Config.MaxInFlight is
// zero.
const DefaultMaxInFlight = 64

// Server is the multi-tenant HTTP front end. It implements
// http.Handler; mount it on an http.Server (cmd/interopd) or an
// httptest.Server (tests).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metricsRegistry
	sem     chan struct{}

	draining atomic.Bool

	stop      chan struct{} // closed by Close: ends the background loops
	loops     sync.WaitGroup
	closeOnce sync.Once

	mu      sync.RWMutex
	tenants map[string]*tenant
}

// New builds a server with no tenants.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newMetricsRegistry(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		tenants: map[string]*tenant{},
		stop:    make(chan struct{}),
	}
	s.routes()
	s.every(cfg.ReconcileInterval, DefaultReconcileInterval, s.reconcileTenants)
	if cfg.DataDir != "" {
		s.every(cfg.CheckpointInterval, DefaultCheckpointInterval, s.checkpointTenants)
	}
	return s
}

// every runs pass on a ticker until Close: the background reconciler
// and checkpointer. A negative interval disables the loop; zero means
// def.
func (s *Server) every(interval, def time.Duration, pass func()) {
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = def
	}
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				pass()
			}
		}
	}()
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/tenants", s.serve("create_tenant", s.handleCreateTenant))
	s.mux.HandleFunc("GET /v1/tenants", s.serve("list_tenants", s.handleListTenants))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.serve("delete_tenant", s.handleDeleteTenant))
	s.mux.HandleFunc("POST /v1/{tenant}/query", s.serve("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/{tenant}/tx", s.serve("tx", s.handleTx))
	s.mux.HandleFunc("POST /v1/{tenant}/attach", s.serve("attach", s.handleAttach))
	s.mux.HandleFunc("POST /v1/{tenant}/detach", s.serve("detach", s.handleDetach))
	s.mux.HandleFunc("GET /v1/{tenant}/classes", s.serve("classes", s.handleClasses))
	s.mux.HandleFunc("GET /v1/{tenant}/health", s.serveHealth())
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// pprof: the default-mux handlers, mounted explicitly (the server
	// never uses http.DefaultServeMux).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// serve wraps a handler with the /v1 request path: admission and
// metrics around it, the error taxonomy after it.
func (s *Server) serve(name string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	ep := s.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if err := ep.admit(func() error { return h(w, r) }); err != nil {
			ep.writeError(w, r, err)
		}
	}
}

// serveHealth is serve without admission: the health endpoint is
// timed and its errors classified like every other request, but it
// answers while the server drains or is saturated.
func (s *Server) serveHealth() http.HandlerFunc {
	ep := s.endpoint("health")
	return func(w http.ResponseWriter, r *http.Request) {
		if err := ep.timed(func() error { return s.handleHealth(w, r) }); err != nil {
			ep.writeError(w, r, err)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func readJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("request body: %v", err)
	}
	return nil
}

// tenantByName is the one tenant lookup, for every transport and route.
func (s *Server) tenantByName(name string) (*tenant, error) {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("tenant %q: %w", name, ErrUnknownTenant)
	}
	return t, nil
}

// tenantList snapshots the hosted tenants, sorted by name.
func (s *Server) tenantList() []*tenant {
	s.mu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// AddTenant builds a tenant from a built-in fixture and registers it —
// the programmatic path cmd/interopd uses to preload tenants at boot.
// On a durable server (Config.DataDir) this is also the restart path:
// an existing data directory for the tenant is recovered, not rebuilt.
func (s *Server) AddTenant(name, fixtureName string) error {
	_, err := s.buildTenant(context.Background(), name, tenantSource{Fixture: fixtureName})
	return err
}

// buildTenant constructs (ephemeral) or boots (durable) a tenant from
// its member recipe and registers it.
func (s *Server) buildTenant(ctx context.Context, name string, src tenantSource) (*tenant, error) {
	if err := validateTenantName(name); err != nil {
		return nil, err
	}
	// Refuse duplicates BEFORE building: a durable boot opens the data
	// directory the live tenant is appending to, and its Finish-time
	// checkpoint would overwrite state the live log is ahead of.
	if _, err := s.tenantByName(name); err == nil {
		return nil, badRequest("tenant %q already exists", name)
	}
	members, err := src.build()
	if err != nil {
		// Recipe errors (unknown fixture, unparsable spec) are the
		// client's fault, surfaced before any durable state is touched.
		return nil, badRequest("%v", err)
	}
	if s.cfg.DataDir != "" {
		t, err := s.buildDurableTenant(ctx, name, src, members)
		if err != nil {
			return nil, err
		}
		return t, s.registerTenant(t)
	}
	fed, err := buildFederation(ctx, members, interopdb.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	t := newTenant(name, fed)
	return t, s.registerTenant(t)
}

func validateTenantName(name string) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return badRequest("tenant name %q: must be non-empty without '/' or spaces", name)
	}
	if name == "tenants" {
		return badRequest("tenant name %q is reserved", name)
	}
	return nil
}

func (s *Server) registerTenant(t *tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[t.name]; dup {
		// Lost a create/create race. Close the loser's log WITHOUT a
		// checkpoint: the winner's log may already be ahead, and a
		// snapshot of the loser's boot state would roll it back.
		t.batch.close()
		if t.dur != nil {
			t.durMu.Lock()
			t.durClosed = true
			t.durMu.Unlock()
			_ = t.dur.Close()
		}
		return badRequest("tenant %q already exists", t.name)
	}
	s.tenants[t.name] = t
	return nil
}

// Tenants lists the hosted tenant names.
func (s *Server) Tenants() []string {
	tenants := s.tenantList()
	out := make([]string, len(tenants))
	for i, t := range tenants {
		out[i] = t.name
	}
	return out
}

// Drain puts the server into draining mode (new /v1 requests get 503)
// and, once the caller's http.Server.Shutdown has drained in-flight
// handlers, stops every tenant's batcher, flushing requests already
// enqueued. Call order in cmd/interopd:
//
//	srv.Drain()              // refuse new work
//	httpServer.Shutdown(ctx) // drain in-flight handlers (batchers live)
//	srv.Close()              // stop batchers
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the background reconciler, the checkpointer, and every
// tenant's batcher, shipping anything still enqueued; then, on a
// durable server, it flushes each tenant's WAL and writes its final
// checkpoint so a clean restart recovers with zero replay. Handlers
// must be drained first (see Drain). Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.loops.Wait()
		tenants := s.tenantList()
		// Batchers first — the final checkpoint must include the last
		// enqueued batches — then the durability shutdown.
		for _, t := range tenants {
			t.batch.close()
		}
		for _, t := range tenants {
			t.shutdownDurability(s.logf)
		}
	})
}
