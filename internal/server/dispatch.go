package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// One request path. Both transports decode a request in their own
// framing — JSON bodies in handlers.go, binary frames behind
// wireserver.go — and then take the same four steps, each written once
// here: admit (drain refusal, the shared admission semaphore, the
// endpoint's metrics), resolve (tenant name → serving engine), run (the
// query, prepare, exec and tx request kinds) and classify (the one error
// taxonomy, which each transport renders in its own framing). DESIGN §10
// states the taxonomy as a table.

// endpoint is one admitted request kind. Its metrics handle is resolved
// once, when the HTTP route or the wire backend is built.
type endpoint struct {
	s    *Server
	name string
	m    *endpointMetrics
}

func (s *Server) endpoint(name string) *endpoint {
	return &endpoint{s: s, name: name, m: s.metrics.endpoint(name)}
}

// The two refusals admission makes before a request runs.
var (
	errDraining  = errors.New("server is draining")
	errAdmission = errors.New("server at admission limit")
)

// admit runs the request under an admission slot and records its
// latency and outcome. A draining server refuses without counting the
// request; a full semaphore refuses at once (counted as an error) rather
// than queueing, because queueing under overload only moves the
// collapse point.
func (ep *endpoint) admit(run func() error) error {
	s := ep.s
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		ep.m.record(0, true)
		return errAdmission
	}
	return ep.timed(run)
}

// timed runs the request and records its latency and outcome.
func (ep *endpoint) timed(run func() error) error {
	t0 := time.Now()
	err := run()
	ep.m.record(time.Since(t0), err != nil)
	return err
}

// engineOf resolves a tenant name to the tenant and its serving engine.
func (s *Server) engineOf(name string) (*tenant, *view.Engine, error) {
	t, err := s.tenantByName(name)
	if err != nil {
		return nil, nil, err
	}
	e, err := t.engine()
	return t, e, err
}

// prepare parses src and checks its class against the tenant's current
// membership. query runs the result at once; the wire transport caches
// it under a prepared handle.
func (s *Server) prepare(tenantName, src string) (*view.Engine, view.Query, error) {
	_, e, err := s.engineOf(tenantName)
	if err != nil {
		return nil, view.Query{}, err
	}
	q, err := view.ParseQuery(src)
	if err != nil {
		return nil, q, badRequest("parsing query: %v", err)
	}
	return e, q, checkClass(e, q.Class)
}

// query parses and serves src: plan-or-cache, then the snapshot scan.
func (s *Server) query(ctx context.Context, tenantName, src string) ([]view.Row, view.Stats, error) {
	e, q, err := s.prepare(tenantName, src)
	if err != nil {
		return nil, view.Stats{}, err
	}
	return e.RunContext(ctx, q)
}

// exec serves an already-parsed query — the prepared fast path, straight
// to the snapshot plan cache keyed by expr.Fingerprint. The class is
// re-checked because membership may have changed since Prepare (the wire
// transport re-prepares on MemberVersion movement, but a detach that
// removed the class must fail as a fresh query would: not found).
func (s *Server) exec(ctx context.Context, tenantName string, q view.Query) ([]view.Row, view.Stats, error) {
	_, e, err := s.engineOf(tenantName)
	if err == nil {
		err = checkClass(e, q.Class)
	}
	if err != nil {
		return nil, view.Stats{}, err
	}
	return e.RunContext(ctx, q)
}

func checkClass(e *view.Engine, class string) error {
	if !e.HasClass(class) {
		return fmt.Errorf("class %q: %w", class, view.ErrUnknownClass)
	}
	return nil
}

// tx is the paper's §5.2 write path: validate the batch against the
// derived global constraints — predicting the local managers' verdict
// before any subtransaction ships — and, unless validateOnly, ship it
// through the tenant's batcher. A rejected batch never reaches the
// batcher.
func (s *Server) tx(ctx context.Context, tenantName string, ops []view.Mutation, validateOnly bool) (int, view.ValidateStats, error) {
	t, e, err := s.engineOf(tenantName)
	if err != nil {
		return 0, view.ValidateStats{}, err
	}
	if len(ops) == 0 {
		return 0, view.ValidateStats{}, badRequest("empty op list")
	}
	rejs, vs, err := e.Validate(ctx, ops)
	if err != nil {
		return 0, vs, err
	}
	if len(rejs) > 0 {
		return 0, vs, view.Rejections(rejs)
	}
	if validateOnly {
		return 0, vs, nil
	}
	if err := t.batch.enqueue(ctx, ops); err != nil {
		return 0, vs, err
	}
	return len(ops), vs, nil
}

// badRequestError is a malformed request: bad JSON, a query that does
// not parse, an empty op list, a bad tenant recipe.
type badRequestError string

func (e badRequestError) Error() string { return string(e) }

func badRequest(format string, args ...any) error {
	return badRequestError(fmt.Sprintf(format, args...))
}

// failure is one row of the error taxonomy, filled in for one error:
// the HTTP status and the body fields beyond "error", the wire code, the
// message and Retry-After seconds both transports carry (0: no hint),
// the rejections, and whether the server logs it.
type failure struct {
	status     int
	fields     map[string]any
	code       byte
	msg        string
	retryAfter int
	rejs       view.Rejections
	log        bool
}

// statusClientClosedRequest is the de-facto code for "client went away
// mid-request" (nginx's 499); no official constant exists.
const statusClientClosedRequest = 499

// classify maps err to its row of the taxonomy; it is the only place a
// sentinel becomes a response. tenant names the request's tenant (the
// partial-commit row points at its health endpoint); ctx is the
// request's context, since a failure after the client left is a
// cancellation whatever it wraps.
func (s *Server) classify(ctx context.Context, tenant string, err error) failure {
	f := failure{msg: err.Error()}
	var bad badRequestError
	var mue *view.MemberUnavailableError
	var pce *view.PartialCommitError
	switch {
	case errors.Is(err, errDraining):
		f.status, f.code, f.retryAfter = http.StatusServiceUnavailable, wire.CodeDraining, s.retryAfterSeconds()
	case errors.Is(err, errAdmission):
		// The hint tracks observed latency and queue depth, not a
		// constant: a saturated slow server should not invite an
		// immediate retry storm.
		f.status, f.code, f.retryAfter = http.StatusTooManyRequests, wire.CodeAdmission, s.retryAfterSeconds()
		f.msg = fmt.Sprintf("server at admission limit (%d in flight)", cap(s.sem))
	case errors.As(err, &bad):
		f.status, f.code = http.StatusBadRequest, wire.CodeBadRequest
	case errors.Is(err, ErrUnknownTenant):
		f.status, f.code = http.StatusNotFound, wire.CodeUnknownTenant
	case errors.Is(err, view.ErrUnknownClass), errors.Is(err, view.ErrUnknownObject):
		f.status, f.code = http.StatusNotFound, wire.CodeNotFound
	case errors.Is(err, view.ErrRejected):
		f.status, f.code = http.StatusConflict, wire.CodeRejected
		errors.As(err, &f.rejs)
	case errors.Is(err, view.ErrMemberUnavailable):
		// A quarantined (or freshly failed) member refused the batch
		// before any peer committed: cleanly retryable after the
		// breaker's cool-down.
		f.status, f.code, f.retryAfter = http.StatusServiceUnavailable, wire.CodeUnavailable, s.retryAfterSeconds()
		f.fields = map[string]any{"retryable": true}
		if errors.As(err, &mue) {
			f.fields["member"] = mue.Member
			f.retryAfter = retryAfterForOutage(mue.RetryAfter)
		}
		f.fields["retry_after_s"] = f.retryAfter
	case errors.Is(err, view.ErrPartialCommit):
		// A member went away after its peers committed. The batch is
		// journaled and the background reconciler completes (or
		// compensates) it — do NOT resubmit, poll the health endpoint
		// until the journal entry resolves.
		f.status, f.code = http.StatusServiceUnavailable, wire.CodeUnavailable
		f.retryAfter = retryAfterForOutage(DefaultReconcileInterval)
		f.fields = map[string]any{"retryable": false, "reconciling": true}
		if errors.As(err, &pce) {
			f.fields["journal_seq"] = pce.Seq
			f.fields["committed"] = pce.Committed
			f.fields["pending"] = pce.Pending
			f.fields["mode"] = pce.Mode
		}
		if tenant != "" {
			f.fields["status"] = "/v1/" + tenant + "/health"
		}
	case errors.Is(err, view.ErrNoStores):
		// The tenant's engine has no member stores bound: it serves
		// reads but has nowhere to ship a write. Waiting will not help.
		f.status, f.code = http.StatusServiceUnavailable, wire.CodeUnavailable
		f.fields = map[string]any{"retryable": false}
	case ctx.Err() != nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the HTTP status is for the log only.
		f.status, f.code, f.log = statusClientClosedRequest, wire.CodeCancelled, true
	default:
		f.status, f.code, f.log = http.StatusInternalServerError, wire.CodeInternal, true
	}
	return f
}

// fail classifies an error of this endpoint and logs the rows that
// call for it.
func (ep *endpoint) fail(ctx context.Context, tenant string, err error) failure {
	f := ep.s.classify(ctx, tenant, err)
	if f.log {
		ep.s.logf("%s: %d %v", ep.name, f.status, err)
	}
	return f
}

// writeError renders err's row as a JSON error response.
func (ep *endpoint) writeError(w http.ResponseWriter, r *http.Request, err error) {
	f := ep.fail(r.Context(), r.PathValue("tenant"), err)
	body := map[string]any{"error": f.msg}
	for k, v := range f.fields {
		body[k] = v
	}
	if f.rejs != nil {
		body["rejections"] = EncodeRejections(f.rejs)
	}
	if f.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
	}
	writeJSON(w, f.status, body)
}

// wireErr renders err's row as the binary transport's error. Rejections
// travel as themselves: the transport encodes their payload.
func (ep *endpoint) wireErr(ctx context.Context, tenant string, err error) error {
	if err == nil {
		return nil
	}
	f := ep.fail(ctx, tenant, err)
	if f.rejs != nil {
		return f.rejs
	}
	return &wire.Error{Code: f.code, Msg: f.msg, RetryAfter: f.retryAfter}
}
