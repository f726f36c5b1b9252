// Package server hosts federations over HTTP/JSON: multi-tenant
// serving of the integrated view (queries, validated transactions,
// runtime attach/detach) with admission control, per-endpoint metrics
// and graceful drain. It is the transport layer over the engine's
// context-aware API — every request's context flows into RunContext/
// Validate/AttachContext, so a disconnected client stops burning CPU at
// the next scan-loop or solver-call boundary, and the typed sentinels
// (ErrRejected, ErrUnknownClass, ErrUnknownObject, ErrUnknownTenant,
// ErrNoStores, ...)
// map failures to status codes without string matching.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interopdb/internal/view"
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

	reconcileStop  chan struct{}
	reconcileDone  chan struct{}
	checkpointStop chan struct{}
	checkpointDone chan struct{}
	closeOnce      sync.Once

	mu      sync.RWMutex
	tenants map[string]*tenant
}

// New builds a server with no tenants.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	s := &Server{
		cfg:            cfg,
		mux:            http.NewServeMux(),
		metrics:        newMetricsRegistry(),
		sem:            make(chan struct{}, cfg.MaxInFlight),
		tenants:        map[string]*tenant{},
		reconcileStop:  make(chan struct{}),
		reconcileDone:  make(chan struct{}),
		checkpointStop: make(chan struct{}),
		checkpointDone: make(chan struct{}),
	}
	s.routes()
	if cfg.ReconcileInterval >= 0 {
		interval := cfg.ReconcileInterval
		if interval == 0 {
			interval = DefaultReconcileInterval
		}
		go s.reconcileLoop(interval)
	} else {
		close(s.reconcileDone)
	}
	if cfg.DataDir != "" && cfg.CheckpointInterval >= 0 {
		interval := cfg.CheckpointInterval
		if interval == 0 {
			interval = DefaultCheckpointInterval
		}
		go s.checkpointLoop(interval)
	} else {
		close(s.checkpointDone)
	}
	return s
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
	// Health bypasses the /v1 middleware stack (see handleHealth).
	s.mux.HandleFunc("GET /v1/{tenant}/health", s.handleHealth)
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

// httpError carries a status code through a handler's error return.
type httpError struct {
	status  int
	msg     string
	payload any // optional structured body (e.g. rejections)
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// serve wraps a handler with the /v1 middleware stack: drain refusal,
// admission control, metrics recording, and typed-error → status-code
// mapping.
func (s *Server) serve(name string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	m := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "server is draining"})
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			m.record(0, true)
			// The hint tracks observed latency and queue depth, not a
			// constant: a saturated slow server should not invite an
			// immediate retry storm.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": fmt.Sprintf("server at admission limit (%d in flight)", cap(s.sem)),
			})
			return
		}
		t0 := time.Now()
		err := h(w, r)
		m.record(time.Since(t0), err != nil)
		if err != nil {
			s.writeError(w, r, name, err)
		}
	}
}

// writeError maps a handler error to a response by sentinel.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, name string, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		body := map[string]any{"error": he.msg}
		if he.payload != nil {
			body["rejections"] = he.payload
		}
		writeJSON(w, he.status, body)
	case errors.Is(err, ErrUnknownTenant),
		errors.Is(err, view.ErrUnknownClass),
		errors.Is(err, view.ErrUnknownObject):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, view.ErrRejected):
		body := map[string]any{"error": err.Error()}
		var rejs view.Rejections
		if errors.As(err, &rejs) {
			body["rejections"] = EncodeRejections(rejs)
		}
		writeJSON(w, http.StatusConflict, body)
	case errors.Is(err, view.ErrMemberUnavailable):
		// A quarantined (or freshly failed) member refused the batch
		// before any peer committed: cleanly retryable after the
		// breaker's cool-down.
		body := map[string]any{"error": err.Error(), "retryable": true}
		retryAfter := s.retryAfterSeconds()
		var mue *view.MemberUnavailableError
		if errors.As(err, &mue) {
			body["member"] = mue.Member
			retryAfter = retryAfterForOutage(mue.RetryAfter)
		}
		body["retry_after_s"] = retryAfter
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, body)
	case errors.Is(err, view.ErrPartialCommit):
		// A member went away after its peers committed. The batch is
		// journaled and the background reconciler completes (or
		// compensates) it — do NOT resubmit, poll the health endpoint
		// until the journal entry resolves.
		body := map[string]any{
			"error":       err.Error(),
			"retryable":   false,
			"reconciling": true,
		}
		var pce *view.PartialCommitError
		if errors.As(err, &pce) {
			body["journal_seq"] = pce.Seq
			body["committed"] = pce.Committed
			body["pending"] = pce.Pending
			body["mode"] = pce.Mode
		}
		if tn := r.PathValue("tenant"); tn != "" {
			body["status"] = "/v1/" + tn + "/health"
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterForOutage(DefaultReconcileInterval)))
		writeJSON(w, http.StatusServiceUnavailable, body)
	case errors.Is(err, view.ErrNoStores):
		// The tenant's engine has no member stores bound: it serves
		// reads but has nowhere to ship a write. Waiting will not help.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "retryable": false})
	case r.Context().Err() != nil:
		// The client is gone; the status is for the log only.
		s.logf("%s: client cancelled: %v", name, err)
		writeJSON(w, statusClientClosedRequest, map[string]any{"error": err.Error()})
	default:
		s.logf("%s: %v", name, err)
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
}

// statusClientClosedRequest is the de-facto code for "client went away
// mid-request" (nginx's 499); no official constant exists.
const statusClientClosedRequest = 499

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

// tenantOf resolves the {tenant} path value.
func (s *Server) tenantOf(r *http.Request) (*tenant, error) {
	name := r.PathValue("tenant")
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("tenant %q: %w", name, ErrUnknownTenant)
	}
	return t, nil
}

// AddTenant builds a tenant from a built-in fixture and registers it —
// the programmatic path cmd/interopd uses to preload tenants at boot.
// On a durable server (Config.DataDir) this is also the restart path:
// an existing data directory for the tenant is recovered, not rebuilt.
func (s *Server) AddTenant(name, fixtureName string) error {
	return s.buildTenant(context.Background(), name, tenantSource{Fixture: fixtureName})
}

// buildTenant constructs (ephemeral) or boots (durable) a tenant from
// its member recipe and registers it.
func (s *Server) buildTenant(ctx context.Context, name string, src tenantSource) error {
	if err := validateTenantName(name); err != nil {
		return err
	}
	// Refuse duplicates BEFORE building: a durable boot opens the data
	// directory the live tenant is appending to, and its Finish-time
	// checkpoint would overwrite state the live log is ahead of.
	s.mu.RLock()
	_, dup := s.tenants[name]
	s.mu.RUnlock()
	if dup {
		return badRequest("tenant %q already exists", name)
	}
	var t *tenant
	if s.cfg.DataDir != "" {
		dt, err := s.buildDurableTenant(ctx, name, src)
		if err != nil {
			return err
		}
		t = dt
	} else {
		members, err := src.build()
		if err != nil {
			return err
		}
		fed, err := buildFederation(ctx, members)
		if err != nil {
			return err
		}
		t = newTenant(name, fed)
	}
	return s.registerTenant(t)
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		out = append(out, n)
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
		close(s.reconcileStop)
		close(s.checkpointStop)
		<-s.reconcileDone
		<-s.checkpointDone
		s.mu.Lock()
		tenants := make([]*tenant, 0, len(s.tenants))
		for _, t := range s.tenants {
			tenants = append(tenants, t)
		}
		s.mu.Unlock()
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
