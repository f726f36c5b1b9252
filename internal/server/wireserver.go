package server

import (
	"context"
	"fmt"
	"time"

	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// WireServer returns a binary-transport server bound to this Server's
// tenants — the second front end alongside HTTP. Both transports share
// one admission semaphore (a saturated server is saturated regardless
// of framing), one metrics registry (wire endpoints appear in /metrics
// as wire_query/wire_prepare/wire_exec/wire_tx), one drain flag and the
// same tenant engines, so a query answers identically on either.
func (s *Server) WireServer() *wire.Server {
	return wire.NewServer(wire.ServerConfig{
		Backend: wireBackend{s},
		Logf:    s.cfg.Logf,
	})
}

// wireBackend adapts *Server to wire.Backend.
type wireBackend struct {
	s *Server
}

// begin runs the wire equivalent of the HTTP serve() middleware: drain
// refusal, admission control, and a completion func recording metrics
// and releasing the admission slot.
func (b wireBackend) begin(endpoint string) (func(error), error) {
	s := b.s
	m := s.metrics.endpoint(endpoint)
	if s.draining.Load() {
		return nil, &wire.Error{
			Code:       wire.CodeDraining,
			Msg:        "server is draining",
			RetryAfter: s.retryAfterSeconds(),
		}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		m.record(0, true)
		return nil, &wire.Error{
			Code:       wire.CodeAdmission,
			Msg:        fmt.Sprintf("server at admission limit (%d in flight)", cap(s.sem)),
			RetryAfter: s.retryAfterSeconds(),
		}
	}
	t0 := time.Now()
	return func(err error) {
		m.record(time.Since(t0), err != nil)
		<-s.sem
	}, nil
}

// tenantEngine resolves a tenant name to its serving engine.
func (b wireBackend) tenantEngine(name string) (*tenant, *view.Engine, error) {
	t, err := b.s.tenantByName(name)
	if err != nil {
		return nil, nil, &wire.Error{Code: wire.CodeUnknownTenant, Msg: err.Error()}
	}
	e, err := t.engine()
	if err != nil {
		return nil, nil, err
	}
	return t, e, nil
}

// parseChecked parses src and verifies its class against the engine's
// current membership — the shared front half of Query and Prepare.
func parseChecked(e *view.Engine, src string) (view.Query, error) {
	q, err := view.ParseQuery(src)
	if err != nil {
		return view.Query{}, &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("parsing query: %v", err)}
	}
	if !e.HasClass(q.Class) {
		return view.Query{}, fmt.Errorf("class %q: %w", q.Class, view.ErrUnknownClass)
	}
	return q, nil
}

// Query implements wire.Backend: parse, plan-or-cache, serve.
func (b wireBackend) Query(ctx context.Context, tenantName, src string) (rows []view.Row, stats view.Stats, err error) {
	done, err := b.begin("wire_query")
	if err != nil {
		return nil, stats, err
	}
	defer func() { done(err) }()
	_, e, err := b.tenantEngine(tenantName)
	if err != nil {
		return nil, stats, err
	}
	q, err := parseChecked(e, src)
	if err != nil {
		return nil, stats, err
	}
	return e.RunContext(ctx, q)
}

// Prepare implements wire.Backend: parse once for the transport to
// cache under a handle.
func (b wireBackend) Prepare(ctx context.Context, tenantName, src string) (q view.Query, err error) {
	done, err := b.begin("wire_prepare")
	if err != nil {
		return view.Query{}, err
	}
	defer func() { done(err) }()
	_, e, err := b.tenantEngine(tenantName)
	if err != nil {
		return view.Query{}, err
	}
	return parseChecked(e, src)
}

// Exec implements wire.Backend: the prepared fast path. No parsing —
// the already-parsed query goes straight to RunContext, where the
// snapshot plan cache keyed by expr.Fingerprint takes over. The class
// is re-checked because membership may have changed since Prepare (the
// transport re-prepares on MemberVersion movement, but a detach that
// removed the class entirely must fail like HTTP does: not-found).
func (b wireBackend) Exec(ctx context.Context, tenantName string, q view.Query) (rows []view.Row, stats view.Stats, err error) {
	done, err := b.begin("wire_exec")
	if err != nil {
		return nil, stats, err
	}
	defer func() { done(err) }()
	_, e, err := b.tenantEngine(tenantName)
	if err != nil {
		return nil, stats, err
	}
	if !e.HasClass(q.Class) {
		return nil, stats, fmt.Errorf("class %q: %w", q.Class, view.ErrUnknownClass)
	}
	return e.RunContext(ctx, q)
}

// Tx implements wire.Backend: §5.2 validate-then-ship, identical to the
// HTTP handler — rejections never reach the batcher.
func (b wireBackend) Tx(ctx context.Context, tenantName string, ops []view.Mutation, validateOnly bool) (applied int, vs view.ValidateStats, err error) {
	done, err := b.begin("wire_tx")
	if err != nil {
		return 0, vs, err
	}
	defer func() { done(err) }()
	if len(ops) == 0 {
		return 0, vs, &wire.Error{Code: wire.CodeBadRequest, Msg: "empty op list"}
	}
	t, e, err := b.tenantEngine(tenantName)
	if err != nil {
		return 0, vs, err
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
	if err = t.batch.enqueue(ctx, ops); err != nil {
		return 0, vs, err
	}
	return len(ops), vs, nil
}

// MemberVersion implements wire.Backend.
func (b wireBackend) MemberVersion(tenantName string) uint64 {
	t, err := b.s.tenantByName(tenantName)
	if err != nil {
		return 0
	}
	return t.memberVer.Load()
}
