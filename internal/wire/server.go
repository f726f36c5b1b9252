package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"interopdb/internal/view"
)

// Backend is what the hosting process plugs into the wire server. The
// transport owns framing, request multiplexing and the prepared-handle
// registry; the backend owns tenants, admission control, metrics and
// the engine itself (internal/server implements it on *Server). A
// backend method returns *Error to pick the response code, or
// view.Rejections for a rejected batch (carried with its repairs);
// anything else is CodeInternal.
type Backend interface {
	// Query parses src and serves it against the tenant's snapshot.
	Query(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error)
	// Prepare parses src and checks its class against the tenant's
	// current membership, returning the parsed query for the transport
	// to cache under a handle.
	Prepare(ctx context.Context, tenant, src string) (view.Query, error)
	// Exec serves an already-parsed query — the prepared fast path that
	// skips the parser and goes straight to the snapshot plan cache.
	Exec(ctx context.Context, tenant string, q view.Query) ([]view.Row, view.Stats, error)
	// Tx validates ops and, unless validateOnly, ships them.
	Tx(ctx context.Context, tenant string, ops []view.Mutation, validateOnly bool) (applied int, vs view.ValidateStats, err error)
	// MemberVersion reports the tenant's membership-change counter.
	// Prepared entries remember the version they were parsed under and
	// are transparently re-prepared when it moves (attach/detach can
	// change which classes resolve and how).
	MemberVersion(tenant string) uint64
}

// ServerConfig configures a wire Server.
type ServerConfig struct {
	Backend Backend
	// FrameTimeout bounds how long a peer may take to deliver the rest
	// of a frame once its header has arrived, and how long a response
	// write may block — the slowloris guard. Default 10s.
	FrameTimeout time.Duration
	// IdleTimeout bounds how long a connection may sit between frames
	// with no requests in flight. Default 5m.
	IdleTimeout time.Duration
	// Logf receives connection-level errors. nil = silent.
	Logf func(format string, args ...any)
}

// Server accepts framed binary connections and dispatches requests to
// the Backend. Each connection's frames are read sequentially, but
// requests run concurrently and responses are written as they finish —
// that is the whole pipelining contract: request IDs, not arrival order,
// match responses to requests. A connection's requests run on one
// long-lived worker goroutine while it keeps up; a request that arrives
// while the worker is busy gets a goroutine of its own, so nothing ever
// waits behind another request.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
	active   atomic.Int64 // in-flight requests across all connections
	bufPool  sync.Pool    // *[]byte response/read buffers
	handleID atomic.Uint64
}

// NewServer returns a Server dispatching to cfg.Backend.
func NewServer(cfg ServerConfig) *Server {
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	return &Server{
		cfg:   cfg,
		conns: make(map[*serverConn]struct{}),
		bufPool: sync.Pool{New: func() any {
			b := make([]byte, 0, 4096)
			return &b
		}},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close/Shutdown. It returns
// net.ErrClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		sc := &serverConn{srv: s, conn: c}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		go sc.serve()
	}
}

// Close immediately closes the listener and every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish (or ctx to expire), then closes all connections.
// The hosting process flips its backend to refuse new work (draining)
// before calling Shutdown, mirroring the HTTP drain sequence.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
	// The listener is already closed; Close's job here is only the
	// remaining connections, so its re-close error is not a failure.
	s.Close()
	return nil
}

// getBuf / putBuf recycle encode/read buffers across requests — the
// pool half of the allocation diet. Buffers that grew past 1 MiB are
// dropped rather than pinned in the pool forever.
func (s *Server) getBuf() *[]byte { return s.bufPool.Get().(*[]byte) }

func (s *Server) putBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	s.bufPool.Put(b)
}

// preparedEntry is one registered query on a connection. src is kept so
// the entry can be transparently re-parsed when the tenant's membership
// version moves (attach/detach invalidation).
type preparedEntry struct {
	tenant string
	src    string
	q      view.Query
	ver    uint64
}

// serverConn is one accepted connection.
type serverConn struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex // serialises response frame writes

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	prepared map[uint64]*preparedEntry
}

func (c *serverConn) serve() {
	defer func() {
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		// Cancel anything still running so goroutines don't linger
		// serving a connection nobody reads.
		c.mu.Lock()
		for _, cancel := range c.inflight {
			cancel()
		}
		c.mu.Unlock()
	}()

	ft, it := c.srv.cfg.FrameTimeout, c.srv.cfg.IdleTimeout

	// Buffered reads collapse each frame's header+payload pair (and
	// back-to-back pipelined frames) into one kernel read — on loopback
	// the syscalls are most of the round-trip bill. Deadlines still
	// apply to the underlying conn; data already buffered is by
	// definition already delivered.
	br := bufio.NewReaderSize(c.conn, 64<<10)

	// Preamble: the magic must arrive promptly, or this is not a wire
	// client (or a slowloris) and the connection is dropped.
	c.conn.SetReadDeadline(time.Now().Add(ft))
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if string(magic[:]) != Magic {
		c.srv.logf("wire: bad preamble from %s", c.conn.RemoteAddr())
		return
	}

	// The worker keeps its grown stack from request to request; a
	// goroutine per request would regrow one through the engine each
	// time.
	work := make(chan request)
	defer close(work)
	go c.work(work)

	readBuf := c.srv.getBuf()
	defer func() { c.srv.putBuf(readBuf) }()
	for {
		// Long deadline while idle, short one once a frame has begun:
		// a quiet connection is fine, a half-sent frame is not.
		c.conn.SetReadDeadline(time.Now().Add(it))
		f, err := readFrameInto(br, readBuf, func() {
			c.conn.SetReadDeadline(time.Now().Add(ft))
		})
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.srv.logf("wire: %s: %v", c.conn.RemoteAddr(), err)
			}
			return
		}
		if f.Op == OpCancel {
			c.handleCancel(f.Body)
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.mu.Lock()
		if c.inflight == nil {
			c.inflight = make(map[uint64]context.CancelFunc)
		}
		c.inflight[f.ID] = cancel
		c.mu.Unlock()
		c.srv.active.Add(1)
		// The frame body aliases readBuf; hand the whole buffer to the
		// request (its handler returns it to the pool) and take a fresh
		// one for the next frame, instead of copying the body. The send
		// succeeds only when the worker is idle, waiting to receive;
		// otherwise the request spills onto a goroutine of its own.
		req := request{ctx: ctx, cancel: cancel, op: f.Op, id: f.ID, bodyBuf: readBuf, body: f.Body}
		select {
		case work <- req:
		default:
			go c.handle(req)
		}
		readBuf = c.srv.getBuf()
	}
}

// request is one dispatched frame. bodyBuf is the pooled read buffer
// body aliases; the request's handler owns it and returns it to the pool.
type request struct {
	ctx     context.Context
	cancel  context.CancelFunc
	op      byte
	id      uint64
	bodyBuf *[]byte
	body    []byte
}

// work is the connection's worker: it serves requests until the read
// loop closes reqs.
func (c *serverConn) work(reqs <-chan request) {
	for r := range reqs {
		c.handle(r)
	}
}

// handleCancel cancels the in-flight request the body names. Unknown
// IDs (already finished, or never seen) are ignored: cancellation races
// completion by design.
func (c *serverConn) handleCancel(body []byte) {
	if len(body) < 8 {
		return
	}
	target := binary.LittleEndian.Uint64(body)
	c.mu.Lock()
	cancel := c.inflight[target]
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// handle runs one request and writes its response frame.
func (c *serverConn) handle(r request) {
	ctx, op, id, body := r.ctx, r.op, r.id, r.body
	defer func() {
		c.srv.putBuf(r.bodyBuf)
		c.mu.Lock()
		delete(c.inflight, id)
		c.mu.Unlock()
		r.cancel()
		c.srv.active.Add(-1)
	}()

	buf := c.srv.getBuf()
	defer c.srv.putBuf(buf)
	b := beginFrame(*buf, 0, id)

	respOp := OpErr
	var err error
	switch op {
	case OpQuery:
		var rows []view.Row
		var stats view.Stats
		tenant, src, derr := decodeQueryReq(body)
		if err = badReq(derr); err == nil {
			rows, stats, err = c.srv.cfg.Backend.Query(ctx, tenant, src)
		}
		if err == nil {
			respOp, b = OpRows, appendRowsBody(b, rows, stats)
		}
	case OpPrepare:
		var q view.Query
		tenant, src, derr := decodeQueryReq(body)
		if err = badReq(derr); err == nil {
			q, err = c.srv.cfg.Backend.Prepare(ctx, tenant, src)
		}
		if err == nil {
			h := c.srv.handleID.Add(1)
			c.mu.Lock()
			if c.prepared == nil {
				c.prepared = make(map[uint64]*preparedEntry)
			}
			c.prepared[h] = &preparedEntry{
				tenant: tenant,
				src:    src,
				q:      q,
				ver:    c.srv.cfg.Backend.MemberVersion(tenant),
			}
			c.mu.Unlock()
			respOp, b = OpPrepared, binary.LittleEndian.AppendUint64(b, h)
		}
	case OpExec:
		var rows []view.Row
		var stats view.Stats
		if rows, stats, err = c.exec(ctx, body); err == nil {
			respOp, b = OpRows, appendRowsBody(b, rows, stats)
		}
	case OpTx:
		var applied int
		var vs view.ValidateStats
		tenant, ops, validateOnly, derr := decodeTxReq(body)
		if err = badReq(derr); err == nil {
			applied, vs, err = c.srv.cfg.Backend.Tx(ctx, tenant, ops, validateOnly)
		}
		if err == nil {
			respOp, b = OpTxOK, appendTxOKBody(b, applied, vs)
		}
	default:
		err = &Error{Code: CodeBadRequest, Msg: "unknown opcode"}
	}
	if err != nil {
		b = appendErr(b, err)
	}

	b[frameOverhead] = respOp
	b = finishFrame(b)
	*buf = b // keep any growth for the pool

	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.FrameTimeout))
	_, werr := c.conn.Write(b)
	c.wmu.Unlock()
	if werr != nil {
		c.conn.Close()
	}
}

// exec serves OpExec: look up the handle, revalidate its membership
// version (re-preparing from the saved source if attach/detach moved
// it), and run the parsed query straight into the plan cache.
func (c *serverConn) exec(ctx context.Context, body []byte) ([]view.Row, view.Stats, error) {
	tenant, handle, err := decodeExecReq(body)
	if err != nil {
		return nil, view.Stats{}, badReq(err)
	}
	c.mu.Lock()
	e := c.prepared[handle]
	c.mu.Unlock()
	if e == nil || e.tenant != tenant {
		return nil, view.Stats{}, &Error{Code: CodeUnknownHandle, Msg: "unknown prepared handle"}
	}
	q := e.q
	if ver := c.srv.cfg.Backend.MemberVersion(tenant); ver != e.ver {
		// Membership changed since the handle was prepared: re-parse
		// the saved source so class resolution reflects the new
		// federation. The handle survives; the entry is refreshed.
		q, err = c.srv.cfg.Backend.Prepare(ctx, tenant, e.src)
		if err != nil {
			return nil, view.Stats{}, err
		}
		c.mu.Lock()
		e.q, e.ver = q, ver
		c.mu.Unlock()
	}
	return c.srv.cfg.Backend.Exec(ctx, tenant, q)
}

// appendErr encodes err as an OpErr body. The backend classifies its
// own failures and returns *Error; the transport adds only the payload
// of a rejection batch and the CodeInternal fallback.
func appendErr(dst []byte, err error) []byte {
	var rejs view.Rejections
	errors.As(err, &rejs)
	var we *Error
	switch {
	case errors.As(err, &we):
		return appendErrBody(dst, we.Code, we.RetryAfter, we.Msg, rejs)
	case rejs != nil:
		return appendErrBody(dst, CodeRejected, 0, "mutation rejected", rejs)
	default:
		return appendErrBody(dst, CodeInternal, 0, err.Error(), nil)
	}
}

// badReq wraps a request-decode failure so appendErr maps it to
// CodeBadRequest rather than CodeInternal.
func badReq(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: CodeBadRequest, Msg: err.Error()}
}
