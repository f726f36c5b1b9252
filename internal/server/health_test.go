package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/store/chaos"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// Wire-level fault-tolerance tests: a member backend is swapped for a
// chaos wrapper inside a live tenant's registry, and both transports
// must hold the degraded-serving contract — 503 + Retry-After for
// quarantined writes, a structured partial-commit body pointing at the
// health endpoint, reads that keep serving, and a background reconciler
// that resolves the journal without client action.

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// chaosTenantServer boots a figure1 tenant with the named member
// wrapped in a chaos backend and instant engine retries.
func chaosTenantServer(t *testing.T, cfg Config, member string, opts chaos.Options) (*Server, *httptest.Server, *view.Engine, *chaos.Backend) {
	t.Helper()
	srv := New(cfg)
	if err := srv.AddTenant("figure1", "figure1"); err != nil {
		t.Fatal(err)
	}
	e, cb, err := wrapChaos(srv, member, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, e, cb
}

// wrapChaos swaps the named member of srv's figure1 tenant for a chaos
// wrapper and makes the engine's retries instant.
func wrapChaos(srv *Server, member string, opts chaos.Options) (*view.Engine, *chaos.Backend, error) {
	ten, err := srv.tenantByName("figure1")
	if err != nil {
		return nil, nil, err
	}
	reg := ten.fed.Stores()
	inner, ok := reg.Get(member)
	if !ok {
		return nil, nil, fmt.Errorf("member %s not registered", member)
	}
	cb := chaos.Wrap(inner, opts)
	if err := reg.Swap(member, cb); err != nil {
		return nil, nil, fmt.Errorf("Swap(%s): %w", member, err)
	}
	e := ten.fed.Engine()
	e.Retry = view.RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
	return e, cb, nil
}

// globalIDByISBN finds a global object ID through the federation's
// public integration result — the handle a wire update needs.
func globalIDByISBN(t *testing.T, ten *tenant, isbn string) int {
	t.Helper()
	for _, g := range ten.fed.Result().View.Objects {
		if v, ok := g.Get("isbn"); ok && v.Equal(object.Str(isbn)) {
			return g.ID
		}
	}
	t.Fatalf("no object with isbn %q in the integrated view", isbn)
	return 0
}

func TestHealthEndpoint(t *testing.T) {
	_, ts := testServer(t)

	var rep healthResponse
	if code := getJSON(t, ts.URL+"/v1/figure1/health", &rep); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if !rep.Healthy || rep.JournalDepth != 0 || len(rep.Degraded) != 0 {
		t.Errorf("fresh tenant unhealthy: %+v", rep)
	}
	if len(rep.Members) != 2 {
		t.Fatalf("health lists %d members, want 2: %+v", len(rep.Members), rep.Members)
	}
	for _, m := range rep.Members {
		if m.State != "closed" {
			t.Errorf("member %s breaker %q, want closed", m.Member, m.State)
		}
	}
	// An unknown tenant is one row of the error table, whichever
	// endpoint asks.
	hresp, err := http.Get(ts.URL + "/v1/nosuch/health")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	qresp, err := http.Post(ts.URL+"/v1/nosuch/query", "application/json", strings.NewReader(`{"q":"select title from Proceedings"}`))
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if hresp.StatusCode != http.StatusNotFound || hresp.StatusCode != qresp.StatusCode || string(hbody) != string(qbody) {
		t.Errorf("unknown tenant: health %d %s, query %d %s; want both 404 with one body",
			hresp.StatusCode, hbody, qresp.StatusCode, qbody)
	}
}

// TestWireMemberUnavailable pins the quarantine contract on the wire: a
// member whose commits keep failing turns writes into 503 +
// Retry-After, reads keep serving, and the health endpoint names the
// quarantined member.
func TestWireMemberUnavailable(t *testing.T) {
	// Four scheduled transient faults exhaust the engine's retry budget
	// on the first write; nothing has committed, so it's a clean abort.
	srv, ts, _, cb := chaosTenantServer(t, Config{ReconcileInterval: -1}, "Bookseller", chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	})
	before := countItems(t, ts, "figure1")

	resp, body := post(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: []WireMutation{wireInsert("outage-1", 30)}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write to failing member: status %d body %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var out struct {
		Retryable bool   `json:"retryable"`
		Member    string `json:"member"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Retryable || out.Member != "Bookseller" {
		t.Errorf("503 body %s: want retryable=true member=Bookseller", body)
	}

	// The binary transport refuses the next write the same way and with
	// the same hint, whether the breaker is still open or admits a probe
	// (which fails too).
	cb.ScheduleNext(chaos.FaultTransient, 4)
	c := dialWire(t, srv)
	_, _, err := c.Tx(context.Background(), "figure1", []view.Mutation{decodeWireInsert(t, wireInsert("outage-2", 30))}, false)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeUnavailable || !strings.Contains(we.Msg, "Bookseller") {
		t.Fatalf("binary write to failing member: %v, want CodeUnavailable naming Bookseller", err)
	}
	if got := strconv.Itoa(we.RetryAfter); got != resp.Header.Get("Retry-After") {
		t.Errorf("binary RetryAfter %s, HTTP Retry-After %s", got, resp.Header.Get("Retry-After"))
	}

	// Reads still serve from the last-good snapshot.
	if got := countItems(t, ts, "figure1"); got != before {
		t.Errorf("degraded read: %d items, want %d", got, before)
	}
	var rep healthResponse
	getJSON(t, ts.URL+"/v1/figure1/health", &rep)
	if rep.Healthy || len(rep.Degraded) != 1 || rep.Degraded[0] != "Bookseller" {
		t.Errorf("health after outage: %+v, want degraded [Bookseller]", rep)
	}
	if rep.Faults.Outages == 0 {
		t.Error("health fault counters missing the outage")
	}
}

// TestWirePartialCommitAndManualReconcile pins the stranded-batch wire
// contract: 503 with a structured body naming the committed members and
// pointing at the health endpoint; the journal visible over the wire;
// and Reconcile completing the batch once the member heals.
func TestWirePartialCommitAndManualReconcile(t *testing.T) {
	srv, ts, e, cb := chaosTenantServer(t, Config{ReconcileInterval: -1}, "CSLibrary", chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	})
	ten, _ := srv.tenantByName("figure1")
	vldbID := globalIDByISBN(t, ten, "vldb96")
	before := countItems(t, ts, "figure1")

	// Leading with the Bookseller-routed insert pins the commit order:
	// the bookseller commits, then the faulted library strands.
	ops := []WireMutation{
		wireInsert("stranded-wire-1", 30),
		{Kind: "update", Class: "Item", ID: vldbID, Attrs: map[string]WireValue{
			"title": EncodeValue(object.Str("VLDB 96 (stranded rev)")),
		}},
	}
	resp, body := post(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: ops})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stranded batch: status %d body %s, want 503", resp.StatusCode, body)
	}
	var out struct {
		Retryable   bool     `json:"retryable"`
		Reconciling bool     `json:"reconciling"`
		Committed   []string `json:"committed"`
		Pending     []string `json:"pending"`
		Status      string   `json:"status"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Retryable || !out.Reconciling {
		t.Errorf("partial commit body %s: want retryable=false reconciling=true", body)
	}
	if len(out.Committed) != 1 || out.Committed[0] != "Bookseller" {
		t.Errorf("committed = %v, want [Bookseller]", out.Committed)
	}
	if len(out.Pending) != 1 || out.Pending[0] != "CSLibrary" {
		t.Errorf("pending = %v, want [CSLibrary]", out.Pending)
	}
	if out.Status != "/v1/figure1/health" {
		t.Errorf("status pointer = %q, want /v1/figure1/health", out.Status)
	}

	// The journal is visible over the wire; the batch is not yet served.
	var rep healthResponse
	getJSON(t, ts.URL+"/v1/figure1/health", &rep)
	if rep.JournalDepth != 1 || len(rep.Journal) != 1 || rep.Journal[0].Mode != "complete" {
		t.Fatalf("health journal: %+v, want one complete-mode entry", rep)
	}
	if got := countItems(t, ts, "figure1"); got != before {
		t.Errorf("stranded batch visible to readers: %d items, want %d", got, before)
	}

	// The schedule is exhausted — the member has healed. One reconcile
	// pass completes the batch and applies it to the served view.
	rs, err := e.Reconcile(context.Background())
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if rs.Completed != 1 {
		t.Fatalf("Reconcile stats %+v, want 1 completed", rs)
	}
	if got := countItems(t, ts, "figure1"); got != before+1 {
		t.Errorf("after reconcile: %d items, want %d", got, before+1)
	}
	getJSON(t, ts.URL+"/v1/figure1/health", &rep)
	if !rep.Healthy || rep.JournalDepth != 0 || rep.Faults.ReconcileCompleted != 1 {
		t.Errorf("health after reconcile: %+v, want healthy with an empty journal", rep)
	}

	// The same batch shape strands over the binary transport with the
	// same retry hint, and a second pass completes it.
	cb.ScheduleNext(chaos.FaultTransient, 4)
	binOps := []view.Mutation{
		decodeWireInsert(t, wireInsert("stranded-wire-2", 30)),
		decodeWireInsert(t, WireMutation{Kind: "update", Class: "Item", ID: vldbID, Attrs: map[string]WireValue{
			"title": EncodeValue(object.Str("VLDB 96 (stranded rev 2)")),
		}}),
	}
	_, _, err = dialWire(t, srv).Tx(context.Background(), "figure1", binOps, false)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeUnavailable {
		t.Fatalf("binary stranded batch: %v, want CodeUnavailable", err)
	}
	if want := "batch committed on [Bookseller] but pending on [CSLibrary]"; !strings.HasPrefix(we.Msg, want) {
		t.Errorf("binary message %q, want prefix %q", we.Msg, want)
	}
	if got := strconv.Itoa(we.RetryAfter); got != resp.Header.Get("Retry-After") {
		t.Errorf("binary RetryAfter %s, HTTP Retry-After %s", got, resp.Header.Get("Retry-After"))
	}
	if rs, err := e.Reconcile(context.Background()); err != nil || rs.Completed != 1 {
		t.Fatalf("second Reconcile: %+v %v, want 1 completed", rs, err)
	}
	if got := countItems(t, ts, "figure1"); got != before+2 {
		t.Errorf("after second reconcile: %d items, want %d", got, before+2)
	}
}

// TestDegradedReadStats pins that a read served while a member is
// quarantined names the member in its stats, on both transports.
func TestDegradedReadStats(t *testing.T) {
	srv, ts, _, _ := chaosTenantServer(t, Config{ReconcileInterval: -1}, "Bookseller", chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	})
	if code, body := postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: []WireMutation{wireInsert("degraded-1", 30)}}); code != http.StatusServiceUnavailable {
		t.Fatalf("write to failing member: status %d body %s, want 503", code, body)
	}
	src := "select title from Item where shopprice < 50"
	code, body := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: src})
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
		t.Fatalf("degraded HTTP read: status %d body %s (%v)", code, body, err)
	}
	if got := resp.Stats.Degraded; len(got) != 1 || got[0] != "Bookseller" {
		t.Errorf("HTTP stats.degraded = %v, want [Bookseller] (body %s)", got, body)
	}
	_, stats, err := dialWire(t, srv).Query(context.Background(), "figure1", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Degraded; len(got) != 1 || got[0] != "Bookseller" {
		t.Errorf("binary stats.Degraded = %v, want [Bookseller]", got)
	}
}

// TestBackgroundReconcilerDrainsJournal pins the tentpole's serving
// loop: with the reconciler running, a stranded batch resolves without
// ANY client action — the journal drains and the batch appears in the
// view while the test merely polls the health endpoint.
func TestBackgroundReconcilerDrainsJournal(t *testing.T) {
	srv, ts, _, _ := chaosTenantServer(t, Config{ReconcileInterval: 2 * time.Millisecond}, "CSLibrary", chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	})
	ten, _ := srv.tenantByName("figure1")
	vldbID := globalIDByISBN(t, ten, "vldb96")
	before := countItems(t, ts, "figure1")

	ops := []WireMutation{
		wireInsert("bg-stranded-1", 30),
		{Kind: "update", Class: "Item", ID: vldbID, Attrs: map[string]WireValue{
			"title": EncodeValue(object.Str("VLDB 96 (background rev)")),
		}},
	}
	code, body := postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: ops})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stranded batch: status %d body %s, want 503", code, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var rep healthResponse
		getJSON(t, ts.URL+"/v1/figure1/health", &rep)
		if rep.Healthy && rep.JournalDepth == 0 && rep.Reconciles > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background reconciler never drained the journal: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := countItems(t, ts, "figure1"); got != before+1 {
		t.Errorf("after background reconcile: %d items, want %d", got, before+1)
	}
}
