package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"interopdb/internal/object"
	"interopdb/internal/store/chaos"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// rig is one server with both transports: HTTP requests go straight to
// ServeHTTP, binary ones over a loopback wire client. logged counts the
// server's log lines.
type rig struct {
	srv    *Server
	c      *wire.Client
	mu     sync.Mutex
	logged int
}

func newRig(t *testing.T, cfg Config, prep func(*Server)) *rig {
	t.Helper()
	r := &rig{}
	cfg.ReconcileInterval = -1
	cfg.Logf = func(string, ...any) { r.mu.Lock(); r.logged++; r.mu.Unlock() }
	r.srv = New(cfg)
	t.Cleanup(r.srv.Close)
	if err := r.srv.AddTenant("figure1", "figure1"); err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(r.srv)
	}
	r.c = dialWire(t, r.srv)
	return r
}

func (r *rig) logs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.logged
}

// chaosPrep wraps member in a chaos backend whose first four commit
// attempts fail: the first write that reaches it exhausts the engine's
// retry budget.
func chaosPrep(member string) func(*Server) {
	return func(s *Server) {
		four := map[int]chaos.Fault{1: chaos.FaultTransient, 2: chaos.FaultTransient, 3: chaos.FaultTransient, 4: chaos.FaultTransient}
		if _, _, err := wrapChaos(s, member, chaos.Options{Schedule: four}); err != nil {
			panic(err)
		}
	}
}

// call is one request, sent over either transport.
type call struct {
	q         string // a query, unless tx
	tx        bool
	ops       []WireMutation
	tenant    string // default figure1
	cancelled bool   // sent with an already-cancelled context
}

// seen is what a client of either transport learns about a failure.
type seen struct {
	msg   string
	retry int
	rejs  []string // constraint | detail | number of repairs
}

func (r *rig) viaHTTP(t *testing.T, c call) (int, seen) {
	t.Helper()
	path, body := "/query", any(queryRequest{Q: c.q})
	if c.tx {
		path, body = "/tx", wireTxRequest{Ops: c.ops}
	}
	raw, _ := json.Marshal(body)
	ctx, cancel := context.WithCancel(context.Background())
	if c.cancelled {
		cancel()
	}
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/"+c.tenant+path, bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	r.srv.ServeHTTP(rec, req)
	var out struct {
		Error      string          `json:"error"`
		Rejections []WireRejection `json:"rejections"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("HTTP body %s: %v", rec.Body, err)
	}
	s := seen{msg: out.Error}
	if h := rec.Header().Get("Retry-After"); h != "" {
		s.retry, _ = strconv.Atoi(h)
	}
	for _, rj := range out.Rejections {
		s.rejs = append(s.rejs, fmt.Sprintf("%s | %s | %d", rj.Constraint, rj.Detail, len(rj.Repairs)))
	}
	return rec.Code, s
}

func (r *rig) viaWire(t *testing.T, c call) (byte, seen) {
	t.Helper()
	ctx := context.Background()
	var err error
	switch {
	case c.cancelled:
		// A client abandons a cancelled request and never reads its
		// response frame, so the server half of the transport is asked
		// directly: the error it returns is what the frame would carry.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, _, err = newWireBackend(r.srv).Query(cctx, c.tenant, c.q)
	case c.tx:
		ops, derr := DecodeMutations(c.ops)
		if derr != nil {
			t.Fatal(derr)
		}
		_, _, err = r.c.Tx(ctx, c.tenant, ops, false)
	default:
		_, _, err = r.c.Query(ctx, c.tenant, c.q)
	}
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("binary: %v, want a *wire.Error", err)
	}
	s := seen{msg: we.Msg, retry: we.RetryAfter}
	for _, rj := range we.Rejections {
		s.rejs = append(s.rejs, fmt.Sprintf("%s | %s | %d", rj.Constraint, rj.Detail, len(rj.Repairs)))
	}
	return we.Code, s
}

// liveCooldown is the breaker's remaining cool-down quoted in a member-
// unavailable message; it ticks between two requests.
var liveCooldown = regexp.MustCompile(`retry after [0-9.]+[mµn]?s\)`)

// TestErrorTaxonomy drives every failure a real server can be made to
// produce through both transports, each on a fresh server, and pins it
// to one row of classify: the row's HTTP status and wire code, the same
// message, rejections and retry hint on both, and a log line exactly
// for the rows that call for one. The rows no request can reach are in
// TestClassifyUnreachableRows.
func TestErrorTaxonomy(t *testing.T) {
	probe := newRig(t, Config{}, nil)
	ten, _ := probe.srv.tenantByName("figure1")
	vldbID := globalIDByISBN(t, ten, "vldb96") // the same in every fresh figure1 tenant

	fill := func(s *Server) { s.sem <- struct{}{} }
	for _, row := range []struct {
		name   string
		cfg    Config
		prep   func(*Server)
		call   call
		status int
		code   byte
		logged bool
	}{
		{name: "unknown tenant", call: call{tenant: "ghost", q: "select title from Item"},
			status: http.StatusNotFound, code: wire.CodeUnknownTenant},
		{name: "unknown class", call: call{q: "select title from Nope"},
			status: http.StatusNotFound, code: wire.CodeNotFound},
		{name: "parse error", call: call{q: "selec nonsense"},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "empty op list", call: call{tx: true},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "rejection with repairs", call: call{tx: true, ops: []WireMutation{wireInsert("vldb96", 30)}},
			status: http.StatusConflict, code: wire.CodeRejected},
		{name: "member unavailable", prep: chaosPrep("Bookseller"),
			call:   call{tx: true, ops: []WireMutation{wireInsert("taxonomy-1", 30)}},
			status: http.StatusServiceUnavailable, code: wire.CodeUnavailable},
		{name: "partial commit", prep: chaosPrep("CSLibrary"),
			call: call{tx: true, ops: []WireMutation{
				wireInsert("taxonomy-2", 30),
				{Kind: "update", Class: "Item", ID: vldbID, Attrs: map[string]WireValue{
					"title": EncodeValue(object.Str("VLDB 96 (taxonomy rev)")),
				}},
			}},
			status: http.StatusServiceUnavailable, code: wire.CodeUnavailable},
		{name: "admission", cfg: Config{MaxInFlight: 1}, prep: fill, call: call{q: "select title from Item"},
			status: http.StatusTooManyRequests, code: wire.CodeAdmission},
		{name: "draining", prep: (*Server).Drain, call: call{q: "select title from Item"},
			status: http.StatusServiceUnavailable, code: wire.CodeDraining},
		{name: "cancelled", call: call{q: "select title from Item", cancelled: true},
			status: statusClientClosedRequest, code: wire.CodeCancelled, logged: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := row.call
			if c.tenant == "" {
				c.tenant = "figure1"
			}
			hr := newRig(t, row.cfg, row.prep)
			status, viaHTTP := hr.viaHTTP(t, c)
			wr := newRig(t, row.cfg, row.prep)
			code, viaWire := wr.viaWire(t, c)
			if status != row.status || code != row.code {
				t.Fatalf("HTTP %d / wire code %d, want %d / %d\n http: %+v\n wire: %+v", status, code, row.status, row.code, viaHTTP, viaWire)
			}
			if (hr.logs() > 0) != row.logged || (wr.logs() > 0) != row.logged {
				t.Errorf("log lines: HTTP %d, wire %d; want logged=%v", hr.logs(), wr.logs(), row.logged)
			}
			if row.code == wire.CodeRejected {
				// The binary frame carries a fixed text beside the
				// structured rejections, which both transports share.
				if viaWire.msg != "mutation rejected" || len(viaHTTP.rejs) == 0 || strings.HasSuffix(viaHTTP.rejs[0], " | 0") {
					t.Errorf("rejection: wire %+v, HTTP %+v: want the fixed wire text and repairs", viaWire, viaHTTP)
				}
				viaWire.msg = viaHTTP.msg
			}
			viaHTTP.msg = liveCooldown.ReplaceAllString(viaHTTP.msg, "retry after …)")
			viaWire.msg = liveCooldown.ReplaceAllString(viaWire.msg, "retry after …)")
			if fmt.Sprint(viaHTTP) != fmt.Sprint(viaWire) {
				t.Errorf("transports disagree:\n http: %+v\n wire: %+v", viaHTTP, viaWire)
			}
		})
	}
}

// TestClassifyUnreachableRows covers the taxonomy rows no request to a
// healthy server reaches: an unknown view object (a validated batch
// never names one), an engine without member stores (every tenant binds
// them), and the internal fallback.
func TestClassifyUnreachableRows(t *testing.T) {
	srv := New(Config{ReconcileInterval: -1})
	defer srv.Close()
	for _, row := range []struct {
		err    error
		status int
		code   byte
		fields map[string]any
		log    bool
	}{
		{err: fmt.Errorf("op 0: %w", view.ErrUnknownObject), status: http.StatusNotFound, code: wire.CodeNotFound},
		{err: fmt.Errorf("ship: %w", view.ErrNoStores), status: http.StatusServiceUnavailable, code: wire.CodeUnavailable,
			fields: map[string]any{"retryable": false}},
		{err: errors.New("boom"), status: http.StatusInternalServerError, code: wire.CodeInternal, log: true},
	} {
		f := srv.classify(context.Background(), "figure1", row.err)
		if f.status != row.status || f.code != row.code || f.log != row.log || f.msg != row.err.Error() || f.retryAfter != 0 ||
			fmt.Sprint(f.fields) != fmt.Sprint(row.fields) {
			t.Errorf("classify(%v) = %+v, want status %d code %d fields %v log %v", row.err, f, row.status, row.code, row.fields, row.log)
		}
	}
}
