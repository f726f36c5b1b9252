package server

import (
	"context"

	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// WireServer returns a binary-transport server bound to this Server's
// tenants — the second front end alongside HTTP. Both transports share
// one admission semaphore (a saturated server is saturated regardless
// of framing), one metrics registry (wire endpoints appear in /metrics
// as wire_query/wire_prepare/wire_exec/wire_tx), one drain flag, one
// request path and one error taxonomy (dispatch.go), so a query answers
// identically on either.
func (s *Server) WireServer() *wire.Server {
	return wire.NewServer(wire.ServerConfig{
		Backend: newWireBackend(s),
		Logf:    s.cfg.Logf,
	})
}

// wireBackend adapts *Server to wire.Backend: each method admits through
// its endpoint, runs the shared request kind and renders the error.
type wireBackend struct {
	s                                *Server
	queryEP, prepareEP, execEP, txEP *endpoint
}

func newWireBackend(s *Server) *wireBackend {
	return &wireBackend{
		s:         s,
		queryEP:   s.endpoint("wire_query"),
		prepareEP: s.endpoint("wire_prepare"),
		execEP:    s.endpoint("wire_exec"),
		txEP:      s.endpoint("wire_tx"),
	}
}

// Query implements wire.Backend.
func (b *wireBackend) Query(ctx context.Context, tenant, src string) (rows []view.Row, stats view.Stats, err error) {
	err = b.queryEP.admit(func() error { rows, stats, err = b.s.query(ctx, tenant, src); return err })
	return rows, stats, b.queryEP.wireErr(ctx, tenant, err)
}

// Prepare implements wire.Backend.
func (b *wireBackend) Prepare(ctx context.Context, tenant, src string) (q view.Query, err error) {
	err = b.prepareEP.admit(func() error { _, q, err = b.s.prepare(tenant, src); return err })
	return q, b.prepareEP.wireErr(ctx, tenant, err)
}

// Exec implements wire.Backend.
func (b *wireBackend) Exec(ctx context.Context, tenant string, q view.Query) (rows []view.Row, stats view.Stats, err error) {
	err = b.execEP.admit(func() error { rows, stats, err = b.s.exec(ctx, tenant, q); return err })
	return rows, stats, b.execEP.wireErr(ctx, tenant, err)
}

// Tx implements wire.Backend.
func (b *wireBackend) Tx(ctx context.Context, tenant string, ops []view.Mutation, validateOnly bool) (applied int, vs view.ValidateStats, err error) {
	err = b.txEP.admit(func() error { applied, vs, err = b.s.tx(ctx, tenant, ops, validateOnly); return err })
	return applied, vs, b.txEP.wireErr(ctx, tenant, err)
}

// MemberVersion implements wire.Backend.
func (b *wireBackend) MemberVersion(tenant string) uint64 {
	t, err := b.s.tenantByName(tenant)
	if err != nil {
		return 0
	}
	return t.memberVer.Load()
}
