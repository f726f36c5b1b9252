package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"interopdb"
	"interopdb/internal/object"
	"interopdb/internal/view"
)

// testServer boots a server hosting the two default tenants.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{})
	for name, fix := range map[string]string{"figure1": "figure1", "personnel": "personnel"} {
		if err := srv.AddTenant(name, fix); err != nil {
			t.Fatalf("AddTenant(%s): %v", name, err)
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	resp, out := post(t, url, body)
	return resp.StatusCode, out
}

// post sends body as JSON and returns the response (its body read and
// closed) with the body bytes.
func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// figure1Engine builds the in-process engine the wire answers are
// pinned against — same fixture, same scale as the figure1 tenant.
func figure1Engine(t *testing.T) *view.Engine {
	t.Helper()
	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	res, err := interopdb.Integrate(interopdb.Figure1Library(), interopdb.Figure1Bookseller(),
		interopdb.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	return interopdb.NewQueryEngine(res)
}

// decodeRows converts wire rows back into view rows for comparison.
func decodeRows(t *testing.T, wire []map[string]WireValue) []view.Row {
	t.Helper()
	out := make([]view.Row, len(wire))
	for i, wr := range wire {
		row := view.Row{}
		for k, wv := range wr {
			v, err := DecodeValue(wv)
			if err != nil {
				t.Fatalf("row %d attr %s: %v", i, k, err)
			}
			row[k] = v
		}
		out[i] = row
	}
	return out
}

// TestQueryRoundTripPinned pins wire query answers, row by row and
// value by value, against the in-process engine on an identical
// federation.
func TestQueryRoundTripPinned(t *testing.T) {
	_, ts := testServer(t)
	e := figure1Engine(t)
	for _, src := range []string{
		"select title from Item where shopprice < 50",
		"select title, rating from Proceedings where rating >= 7 and shopprice < 75",
		"select title from Item where shopprice <= 20", // pruned empty
		"select title from Proceedings where rating in {5, 8}",
		"select isbn from Item",
	} {
		code, body := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: src})
		if code != http.StatusOK {
			t.Fatalf("%q: status %d body %s", src, code, body)
		}
		var resp queryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		q, err := view.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, wantStats, err := e.Run(q)
		if err != nil {
			t.Fatalf("%q in-process: %v", src, err)
		}
		gotRows := decodeRows(t, resp.Rows)
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%q: %d rows over the wire, %d in-process", src, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if len(gotRows[i]) != len(wantRows[i]) {
				t.Errorf("%q row %d: attr sets differ: wire %v vs %v", src, i, gotRows[i], wantRows[i])
				continue
			}
			for k, want := range wantRows[i] {
				if got, ok := gotRows[i][k]; !ok || !got.Equal(want) {
					t.Errorf("%q row %d attr %s: wire %v, in-process %v", src, i, k, got, want)
				}
			}
		}
		if resp.Stats.PrunedEmpty != wantStats.PrunedEmpty {
			t.Errorf("%q: pruned_empty %v over the wire, %v in-process", src, resp.Stats.PrunedEmpty, wantStats.PrunedEmpty)
		}
	}
}

// TestQueryErrors pins the error mapping: bad query text 400, unknown
// class 404, unknown tenant 404.
func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t)
	if code, _ := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: "selec nonsense"}); code != http.StatusBadRequest {
		t.Errorf("malformed query: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: "select x from NoSuchClass"}); code != http.StatusNotFound {
		t.Errorf("unknown class: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/ghost/query", queryRequest{Q: "select title from Item"}); code != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", code)
	}
}

func wireInsert(isbn string, price float64) WireMutation {
	return WireMutation{Kind: "insert", Class: "Item", Attrs: map[string]WireValue{
		"title":     EncodeValue(object.Str("T " + isbn)),
		"isbn":      EncodeValue(object.Str(isbn)),
		"shopprice": EncodeValue(object.Real(price)),
		"libprice":  EncodeValue(object.Real(price - 5)),
	}}
}

// countItems queries the wire extent size.
func countItems(t *testing.T, ts *httptest.Server, tenant string) int {
	t.Helper()
	code, body := postJSON(t, ts.URL+"/v1/"+tenant+"/query", queryRequest{Q: "select isbn from Item"})
	if code != http.StatusOK {
		t.Fatalf("count query: status %d body %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return len(resp.Rows)
}

// TestTxRoundTrip pins the mutation lifecycle over the wire: insert
// lands (visible to queries), update changes the value, delete removes
// it — mirrored against the in-process engine.
func TestTxRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	before := countItems(t, ts, "figure1")

	code, body := postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: []WireMutation{wireInsert("wire-1", 30)}})
	if code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", code, body)
	}
	var resp txResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 || resp.ValidateStats.ConstraintsChecked == 0 {
		t.Errorf("insert response %+v: want applied=1 and validation work recorded", resp)
	}
	if got := countItems(t, ts, "figure1"); got != before+1 {
		t.Fatalf("extent after insert: %d, want %d", got, before+1)
	}

	// validate_only must not apply.
	code, body = postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{
		Ops: []WireMutation{wireInsert("wire-2", 30)}, ValidateOnly: true,
	})
	if code != http.StatusOK {
		t.Fatalf("validate_only: status %d body %s", code, body)
	}
	if got := countItems(t, ts, "figure1"); got != before+1 {
		t.Fatalf("extent after validate_only: %d, want %d", got, before+1)
	}
}

// TestTxRejectionSerializesRepairs pins the 409 contract: a duplicate
// key is refused before shipping, and the response carries the violated
// constraint and its verified repair proposals.
func TestTxRejectionSerializesRepairs(t *testing.T) {
	_, ts := testServer(t)
	before := countItems(t, ts, "figure1")

	// 'vldb96' is an isbn the fixture already holds: key violation.
	code, body := postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{Ops: []WireMutation{wireInsert("vldb96", 30)}})
	if code != http.StatusConflict {
		t.Fatalf("duplicate key: status %d body %s, want 409", code, body)
	}
	var resp struct {
		Error      string          `json:"error"`
		Rejections []WireRejection `json:"rejections"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rejections) == 0 {
		t.Fatalf("409 without rejections: %s", body)
	}
	rej := resp.Rejections[0]
	if rej.Constraint == "" || rej.Detail == "" {
		t.Errorf("rejection missing constraint/detail: %+v", rej)
	}
	if len(rej.Repairs) == 0 {
		t.Errorf("rejection carries no repair proposals: %+v", rej)
	} else if rej.Repairs[0].Text == "" {
		t.Errorf("repair proposal missing text: %+v", rej.Repairs[0])
	}
	if got := countItems(t, ts, "figure1"); got != before {
		t.Fatalf("rejected tx changed the extent: %d -> %d", before, got)
	}
}

// TestTxBatchingConcurrent fires concurrent wire transactions and pins
// that every one lands exactly once — the batcher may coalesce them
// into combined routed batches, but must never lose or double-apply.
func TestTxBatchingConcurrent(t *testing.T) {
	_, ts := testServer(t)
	before := countItems(t, ts, "figure1")
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{
				Ops: []WireMutation{wireInsert(fmt.Sprintf("conc-%d", i), 30)},
			})
			if code != http.StatusOK {
				errs <- fmt.Sprintf("tx %d: status %d body %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := countItems(t, ts, "figure1"); got != before+n {
		t.Fatalf("extent after %d concurrent txs: %d, want %d", n, got, before+n)
	}
}

// TestBatcherIsolatesPoisonedRequest pins the fallback: when a combined
// batch fails at staging, innocent peers still ship.
func TestBatcherIsolatesPoisonedRequest(t *testing.T) {
	shippedSets := [][]view.Mutation{}
	fail := view.Mutation{Kind: view.MutDelete, Class: "Item", ID: -1}
	b := newTxBatcher(func(ops []view.Mutation) error {
		shippedSets = append(shippedSets, ops)
		for _, op := range ops {
			if op.ID == -1 {
				return fmt.Errorf("staging failure")
			}
		}
		return nil
	})
	// Stall the loop so both requests coalesce into one drain cycle.
	b.mu.Lock()
	b.pending = append(b.pending,
		&txRequest{ops: []view.Mutation{{Kind: view.MutInsert, Class: "Item"}}, errc: make(chan error, 1)},
		&txRequest{ops: []view.Mutation{fail}, errc: make(chan error, 1)},
	)
	good, bad := b.pending[0], b.pending[1]
	b.mu.Unlock()
	b.wake <- struct{}{}
	if err := <-good.errc; err != nil {
		t.Errorf("innocent request failed: %v", err)
	}
	if err := <-bad.errc; err == nil {
		t.Error("poisoned request succeeded")
	}
	b.close()
	if len(shippedSets) != 3 { // combined, then each alone
		t.Errorf("ship called %d times, want 3 (combined + 2 individual)", len(shippedSets))
	}
}

// TestAttachDetachRoundTrip pins runtime membership changes over the
// wire against the in-process federation: attaching univarchive adds
// its classes, detaching removes them, and queries keep serving
// throughout.
func TestAttachDetachRoundTrip(t *testing.T) {
	_, ts := testServer(t)

	// In-process reference: the same three-member federation.
	fed := interopdb.NewFederation(1, interopdb.PipelineOptions{})
	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	if err := fed.Attach(interopdb.Figure1Library(), local, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(interopdb.Figure1Bookseller(), remote, interopdb.Figure1IntegrationRepaired()); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(interopdb.Figure1UnivArchive(), interopdb.ArchiveStore(interopdb.FixtureOptions{Scale: 1}), interopdb.Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}

	code, body := postJSON(t, ts.URL+"/v1/figure1/attach", attachRequest{FixtureMember: "univarchive"})
	if code != http.StatusOK {
		t.Fatalf("attach: status %d body %s", code, body)
	}
	var info tenantInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Members, fed.Members()) {
		t.Errorf("members after attach: wire %v, in-process %v", info.Members, fed.Members())
	}
	if !reflect.DeepEqual(info.Classes, fed.Engine().Classes()) {
		t.Errorf("classes after attach: wire %v, in-process %v", info.Classes, fed.Engine().Classes())
	}

	// Queries keep serving after the membership change.
	if got := countItems(t, ts, "figure1"); got == 0 {
		t.Fatal("no items after attach")
	}

	archive := interopdb.Figure1UnivArchive().Schema.Name
	code, body = postJSON(t, ts.URL+"/v1/figure1/detach", detachRequest{Member: archive})
	if code != http.StatusOK {
		t.Fatalf("detach: status %d body %s", code, body)
	}
	if err := fed.Detach(archive); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Members, fed.Members()) {
		t.Errorf("members after detach: wire %v, in-process %v", info.Members, fed.Members())
	}
	if !reflect.DeepEqual(info.Classes, fed.Engine().Classes()) {
		t.Errorf("classes after detach: wire %v, in-process %v", info.Classes, fed.Engine().Classes())
	}

	// Detaching below two members is refused.
	if code, _ := postJSON(t, ts.URL+"/v1/figure1/detach", detachRequest{Member: remote.Name()}); code != http.StatusBadRequest {
		t.Errorf("detach below pair: status %d, want 400", code)
	}
}

// TestMultiTenantIsolation pins the acceptance criterion: two tenants
// served concurrently, with mutations of one invisible to the other.
func TestMultiTenantIsolation(t *testing.T) {
	_, ts := testServer(t)

	// The tenants serve different schemas entirely.
	code, body := postJSON(t, ts.URL+"/v1/personnel/query", queryRequest{Q: "select ssn from DB1.Employee"})
	if code != http.StatusOK {
		t.Fatalf("personnel query: status %d body %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	personnelBefore := len(resp.Rows)
	if personnelBefore == 0 {
		t.Fatal("personnel tenant served no employees")
	}

	// Concurrent load on both tenants: queries cross, results don't.
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: "select title from Item where shopprice < 50"})
			if code != http.StatusOK {
				errs <- fmt.Sprintf("figure1 query %d: status %d body %s", i, code, body)
			}
			code, body = postJSON(t, ts.URL+"/v1/personnel/query", queryRequest{Q: "select ssn from DB1.Employee"})
			if code != http.StatusOK {
				errs <- fmt.Sprintf("personnel query %d: status %d body %s", i, code, body)
			}
			if i%2 == 0 {
				code, body = postJSON(t, ts.URL+"/v1/figure1/tx", wireTxRequest{
					Ops: []WireMutation{wireInsert(fmt.Sprintf("iso-%d", i), 30)},
				})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("figure1 tx %d: status %d body %s", i, code, body)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// figure1 writes never leak into personnel.
	code, body = postJSON(t, ts.URL+"/v1/personnel/query", queryRequest{Q: "select ssn from DB1.Employee"})
	if code != http.StatusOK {
		t.Fatalf("personnel query after load: status %d body %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != personnelBefore {
		t.Errorf("personnel extent changed under figure1 writes: %d -> %d", personnelBefore, len(resp.Rows))
	}
	// Item is not a personnel class.
	if code, _ := postJSON(t, ts.URL+"/v1/personnel/query", queryRequest{Q: "select title from Item"}); code != http.StatusNotFound {
		t.Errorf("figure1 class resolved on personnel tenant: status %d, want 404", code)
	}
}

// TestCreateTenantFromUploadedSpecs pins the upload path: TM sources go
// in, a served federation comes out.
func TestCreateTenantFromUploadedSpecs(t *testing.T) {
	_, ts := testServer(t)
	code, body := postJSON(t, ts.URL+"/v1/tenants", createTenantRequest{
		Name: "uploaded",
		Members: []uploadedMemberIn{
			{Spec: interopdb.IntroPersonnelDB1},
			{Spec: interopdb.IntroPersonnelDB2, Integration: interopdb.IntroPersonnelIntegration},
		},
	})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d body %s", code, body)
	}
	var info tenantInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// Pin against the same federation built in-process from the same
	// sources. Uploaded specs carry no instance data, and global
	// classes materialise from extents — so Classes mirrors the
	// in-process answer (empty until objects arrive), never invents
	// entries the engine would refuse.
	s1, err := interopdb.ParseDatabase(interopdb.IntroPersonnelDB1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := interopdb.ParseDatabase(interopdb.IntroPersonnelDB2)
	if err != nil {
		t.Fatal(err)
	}
	is, err := interopdb.ParseIntegration(interopdb.IntroPersonnelIntegration)
	if err != nil {
		t.Fatal(err)
	}
	fed := interopdb.NewFederation(1, interopdb.PipelineOptions{})
	if err := fed.Attach(s1, interopdb.NewStore(s1), nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(s2, interopdb.NewStore(s2), is); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Members, fed.Members()) {
		t.Errorf("uploaded members: wire %v, in-process %v", info.Members, fed.Members())
	}
	if want := fed.Engine().Classes(); len(info.Classes) != len(want) || (len(want) > 0 && !reflect.DeepEqual(info.Classes, want)) {
		t.Errorf("uploaded classes: wire %v, in-process %v", info.Classes, want)
	}
	// Querying a declared-but-unmaterialised class answers 404, the
	// wire form of the engine's unknown-class verdict.
	code, body = postJSON(t, ts.URL+"/v1/uploaded/query", queryRequest{Q: "select ssn from DB1.Employee"})
	if code != http.StatusNotFound {
		t.Fatalf("query on empty uploaded tenant: status %d body %s, want 404", code, body)
	}
	// Duplicate create is refused.
	if code, _ := postJSON(t, ts.URL+"/v1/tenants", createTenantRequest{Name: "uploaded", Fixture: "figure1"}); code != http.StatusBadRequest {
		t.Errorf("duplicate tenant: status %d, want 400", code)
	}
}

// TestCancellationMidQuery pins the acceptance criterion end to end at
// the handler layer: a request whose context is already cancelled
// terminates without an answer, and the tenant's snapshot and plan
// cache serve the next request undamaged.
func TestCancellationMidQuery(t *testing.T) {
	srv, ts := testServer(t)
	q := queryRequest{Q: "select title from Item where shopprice < 50"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw, _ := json.Marshal(q)
	req := httptest.NewRequest(http.MethodPost, "/v1/figure1/query", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled query: status %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}

	// The next (live) client is served correctly from the same engine.
	code, body := postJSON(t, ts.URL+"/v1/figure1/query", q)
	if code != http.StatusOK {
		t.Fatalf("query after cancellation: status %d body %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("query after cancellation served no rows")
	}
}

// TestAdmissionControl pins the 429 contract: with the in-flight bound
// exhausted, new /v1 requests are refused immediately with Retry-After,
// while /metrics stays reachable.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	if err := srv.AddTenant("figure1", "figure1"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Occupy the only admission slot directly.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	resp, err := http.Post(ts.URL+"/v1/figure1/query", "application/json",
		bytes.NewReader([]byte(`{"q":"select title from Item"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Observability is exempt from admission.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics under saturation: status %d, want 200", mresp.StatusCode)
	}
}

// TestGracefulDrain pins the shutdown contract: draining refuses new
// requests with 503, and transaction batches enqueued before the drain
// still ship.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{})
	if err := srv.AddTenant("figure1", "figure1"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close() })

	before := countItems(t, ts, "figure1")

	// Stage a batch directly in the tenant's batcher, as an in-flight
	// handler would, then drain.
	tn, err := srv.tenantByName("figure1")
	if err != nil {
		t.Fatal(err)
	}
	tn.batch.mu.Lock()
	req := &txRequest{
		ops: []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("drain probe"), "isbn": object.Str("drain-1"),
			"shopprice": object.Real(30), "libprice": object.Real(25),
		}}},
		errc: make(chan error, 1),
	}
	tn.batch.pending = append(tn.batch.pending, req)
	tn.batch.mu.Unlock()

	srv.Drain()

	// New requests are refused while draining.
	code, _ := postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: "select title from Item"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request while draining: status %d, want 503", code)
	}

	// Close flushes the enqueued batch.
	srv.Close()
	if err := <-req.errc; err != nil {
		t.Fatalf("enqueued batch failed during drain: %v", err)
	}

	// The insert landed: check via the engine directly (the HTTP
	// surface is draining).
	e := tn.fed.Engine()
	rows, _, err := e.Run(view.Query{Class: "Item"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != before+1 {
		t.Fatalf("extent after drain: %d, want %d", len(rows), before+1)
	}

	// Enqueueing after close is refused, not deadlocked.
	if err := tn.batch.enqueue(context.Background(), req.ops); err == nil {
		t.Error("enqueue after close succeeded")
	}
}

// TestMetricsEndpoint pins the /metrics shape: per-endpoint counters
// and per-tenant plan-cache stats appear after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/figure1/query", queryRequest{Q: "select title from Item where shopprice < 50"})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		UptimeS   float64                     `json:"uptime_s"`
		Endpoints map[string]EndpointSnapshot `json:"endpoints"`
		Tenants   map[string]tenantCacheStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	q, ok := m.Endpoints["query"]
	if !ok || q.Count < 3 {
		t.Errorf("query endpoint metrics %+v, want count >= 3", q)
	}
	if q.Count >= 3 && q.P50Us <= 0 {
		t.Errorf("query p50 not recorded: %+v", q)
	}
	f, ok := m.Tenants["figure1"]
	if !ok {
		t.Fatalf("no figure1 tenant stats in %v", m.Tenants)
	}
	// Three identical queries: the plan was built once and hit twice.
	if f.PlanHits < 2 {
		t.Errorf("figure1 plan hits %d, want >= 2 (stats %+v)", f.PlanHits, f)
	}
}

// TestPprofMounted pins that the profiling surface is reachable.
func TestPprofMounted(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", resp.StatusCode)
	}
}
