package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"interopdb"
	"interopdb/internal/object"
	"interopdb/internal/server"
	"interopdb/internal/store"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// The two wire workloads share everything but their scripts and the
// durable lifecycle: a self-hosted server on loopback, one connection
// per client, the twin federation the layer replays and the oracle run
// on, and the per-op execution.

// sut is the server under test: server.New + WireServer() on
// 127.0.0.1:0, as interopd hosts them.
type sut struct {
	srv    *server.Server
	ws     *wire.Server
	addr   string
	served chan error
}

func startServer(dataDir string) (*sut, error) {
	cfg := server.Config{}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.CheckpointInterval = -1
	}
	srv := server.New(cfg)
	if err := srv.AddTenant(tenantName, "figure1"); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &sut{srv: srv, ws: srv.WireServer(), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.ws.Serve(ln) }()
	return s, nil
}

// stop drains the listener and closes the server; on a durable server
// Close writes the final checkpoint.
func (s *sut) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.ws.Shutdown(ctx)
	<-s.served
	s.srv.Close()
}

// client is one closed-loop client: its own connection and its own
// prepared handles.
type client struct {
	c        *wire.Client
	conn     *countingConn
	prepared []*wire.Prepared
}

func dialClient(ctx context.Context, addr string, stmts []statement) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	wc, err := wire.NewClient(cc)
	if err != nil {
		return nil, err
	}
	cl := &client{c: wc, conn: cc}
	for _, s := range stmts {
		p, err := wc.Prepare(ctx, tenantName, s.text)
		if err != nil {
			wc.Close()
			return nil, fmt.Errorf("prepare %q: %w", s.text, err)
		}
		// Warm-up: plan built, indexes built.
		if _, _, err := p.Exec(ctx); err != nil {
			wc.Close()
			return nil, fmt.Errorf("warm-up %q: %w", s.text, err)
		}
		cl.prepared = append(cl.prepared, p)
	}
	return cl, nil
}

// batches cuts muts into Tx-sized pieces.
func batches(muts []view.Mutation, size int) [][]view.Mutation {
	var out [][]view.Mutation
	for len(muts) > 0 {
		n := min(size, len(muts))
		out = append(out, muts[:n])
		muts = muts[n:]
	}
	return out
}

// twin is a federation built exactly like the server's tenant — same
// fixture, same load batches, same durable lifecycle — inside the
// harness, where its layers' public functions can be called, timed and
// counted one by one.
type twin struct {
	// mu serialises writes to the twin (and with them the store probe).
	mu     sync.Mutex
	fed    *interopdb.Federation
	eng    *view.Engine
	stores []*interopdb.Store
	probe  *storeProbe
	dur    *interopdb.Durability
	dir    string
}

// bootTwin attaches the figure1 fixture as server.builtinFixture does;
// with dir set it follows server.buildDurableTenant's boot protocol,
// with a counting file under the WAL.
func bootTwin(ctx context.Context, dir string, probe *storeProbe) (*twin, error) {
	lib, bs := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	t := &twin{stores: []*interopdb.Store{lib, bs}, probe: probe, dir: dir}
	opts := interopdb.PipelineOptions{}
	if dir != "" {
		dur, err := interopdb.OpenDurability(dir, interopdb.DurabilityOptions{
			Sync:    interopdb.SyncAlways,
			WrapWAL: func(f store.WALFile) store.WALFile { return countingWAL{WALFile: f, probe: probe} },
		})
		if err != nil {
			return nil, err
		}
		if err := dur.RestoreStores(lib, bs); err != nil {
			dur.Close()
			return nil, err
		}
		t.dur = dur
		opts.Memo = dur.Memo()
	}
	t.fed = interopdb.NewFederation(1, opts)
	if err := t.fed.AttachContext(ctx, interopdb.Figure1Library(), lib, nil); err != nil {
		return nil, err
	}
	if err := t.fed.AttachContext(ctx, interopdb.Figure1Bookseller(), bs, interopdb.Figure1IntegrationRepaired()); err != nil {
		return nil, err
	}
	if t.dur != nil {
		if _, err := t.dur.Finish(ctx, t.fed); err != nil {
			t.dur.Close()
			return nil, err
		}
	}
	t.eng = t.fed.Engine()
	return t, nil
}

// buildTwin boots a twin, ships the bulk load in the server's batches
// and, when durable, shuts it down and boots it again from its
// checkpoint, as the server under test is. Last, every member backend
// gets the commit timer.
func buildTwin(ctx context.Context, load []view.Mutation, batch int, dir string) (*twin, error) {
	probe := &storeProbe{}
	t, err := bootTwin(ctx, dir, probe)
	if err != nil {
		return nil, err
	}
	for _, b := range batches(load, batch) {
		if err := t.eng.Ship(ctx, b); err != nil {
			return nil, fmt.Errorf("twin load: %w", err)
		}
	}
	if dir != "" {
		if err := t.dur.Shutdown(t.fed); err != nil {
			return nil, err
		}
		if t, err = bootTwin(ctx, dir, probe); err != nil {
			return nil, err
		}
	}
	reg := t.fed.Stores()
	for _, name := range reg.Names() {
		b, _ := reg.Get(name)
		if err := reg.Swap(name, timedBackend{Backend: b, probe: probe}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *twin) close() {
	if t.dur != nil {
		_ = t.dur.Close()
	}
}

// objectIDs maps isbn to the integrated view's object ID. The server's
// tenant allocates the same IDs, having applied the same operations in
// the same order; the post-run oracle would show it if it did not.
func (t *twin) objectIDs() map[string]int {
	ids := map[string]int{}
	t.eng.ReadLocked(func() {
		for _, g := range t.fed.Result().View.Objects {
			if v, ok := g.Get("isbn"); ok {
				if s, ok := v.(object.Str); ok {
					ids[string(s)] = g.ID
				}
			}
		}
	})
	return ids
}

// scanEngine is the oracle's reference: a fresh engine over the twin's
// current view with neither indexes nor constraints.
func (t *twin) scanEngine() *view.Engine {
	e := view.New(t.fed.Result())
	e.UseIndexes = false
	e.UseConstraints = false
	return e
}

// ack records one write's outcome, for the oracle.
type ack struct {
	kind     opKind
	key      string
	shop     object.Value // insert, update: the shopprice now stored
	accepted bool
}

// clientState is one client's mutable run state; only its own
// goroutine touches it while a segment runs.
type clientState struct {
	cl      *client
	codec   codecReplay
	acks    []ack
	pending []view.Mutation // accepted on an untraced segment, not yet on the twin

	readCounters
	txs, accepted, pairsChecked int64

	// Traced-only counters, from the twin replays.
	tracedReads, tracedAdhoc, tracedTxs int64
	walWrites, walSyncs, walBytes       int64
	publishes                           int64
	hitNS, hits, missNS, misses         []int64 // twin run time per hot statement, by plan hit/miss
	twinMismatch                        int64
}

// wireDriver executes the scripts of a wire workload.
type wireDriver struct {
	ctx    context.Context
	in     *wireInputs
	tw     *twin
	parsed []view.Query // the hot set, parsed for the twin
	expect []int        // rows each hot statement must return, -1 unchecked
	state  []*clientState
}

func (d *wireDriver) clients() int       { return len(d.in.scripts) }
func (d *wireDriver) ops(client int) int { return len(d.in.scripts[client]) }

func (d *wireDriver) do(c, i int, tr *tracer, out *[]sample) bool {
	o := &d.in.scripts[c][i]
	st := d.state[c]
	opID := int64(c)<<40 | int64(i)
	if o.kind.isWrite() {
		return d.doWrite(st, o, opID, tr, out)
	}
	var (
		rows  []view.Row
		stats view.Stats
		err   error
		tag   = tagLight | tagRead
		want  = 1
	)
	t0 := time.Now()
	if o.kind == opExec {
		rows, stats, err = st.cl.prepared[o.stmt].Exec(d.ctx)
		want = d.expect[o.stmt]
	} else {
		rows, stats, err = st.cl.c.Query(d.ctx, tenantName, o.text)
		tag = tagHeavy | tagRead
	}
	t1 := time.Now()
	*out = append(*out, sample{ns: t1.Sub(t0).Nanoseconds(), tag: tag})
	if err != nil {
		return false
	}
	st.note(stats, len(rows))
	ok := want < 0 || len(rows) == want
	if tr != nil && !d.replayRead(st, o, opID, tr, t0, t1, rows, stats) {
		ok = false
	}
	return ok
}

// replayRead repeats a read's layer calls on the twin: parse (ad-hoc
// text only), Engine.RunContext, and the codec on the rows the server
// returned.
func (d *wireDriver) replayRead(st *clientState, o *op, opID int64, tr *tracer, t0, t1 time.Time, rows []view.Row, stats view.Stats) bool {
	root := tr.add(spRoundTrip, -1, opID, t0, t1, false)
	st.tracedReads++
	var q view.Query
	if o.kind == opExec {
		q = d.parsed[o.stmt]
	} else {
		st.tracedAdhoc++
		a := time.Now()
		parsed, err := view.ParseQuery(o.text)
		tr.add(spParse, root, opID, a, time.Now(), true)
		if err != nil {
			return false
		}
		q = parsed
	}
	a := time.Now()
	twinRows, twinStats, err := d.tw.eng.RunContext(d.ctx, q)
	b := time.Now()
	tr.add(spRun, root, opID, a, b, true)
	if o.kind == opExec {
		if twinStats.PlanCached {
			st.hits[o.stmt]++
			st.hitNS[o.stmt] += b.Sub(a).Nanoseconds()
		} else {
			st.misses[o.stmt]++
			st.missNS[o.stmt] += b.Sub(a).Nanoseconds()
		}
	}
	a = time.Now()
	text := ""
	if o.kind == opQuery {
		text = o.text
	}
	cerr := st.codec.read(uint64(opID), text, rows, stats)
	tr.add(spCodec, root, opID, a, time.Now(), true)
	// With writers about, the twin may lag or lead the server by the
	// writes in flight, so only the fixed-answer reads are compared.
	if err != nil || cerr != nil {
		return false
	}
	if o.kind == opQuery || d.expect[o.stmt] >= 0 {
		return len(twinRows) == len(rows)
	}
	return true
}

func (d *wireDriver) doWrite(st *clientState, o *op, opID int64, tr *tracer, out *[]sample) bool {
	ops := []view.Mutation{o.mut}
	t0 := time.Now()
	applied, vs, err := st.cl.c.Tx(d.ctx, tenantName, ops, false)
	t1 := time.Now()
	accepted := err == nil && applied == 1
	ok := accepted
	if o.kind.rejected() {
		ok = expectedRejection(o.kind, err)
	}
	a := ack{kind: o.kind, key: o.key, accepted: accepted}
	if o.mut.Kind != view.MutDelete {
		a.shop = o.mut.Attrs["shopprice"]
	}
	st.acks = append(st.acks, a)
	st.txs++
	if accepted {
		// Only accepted writes count toward write latency: a refusal
		// answers sooner and is not what a writer waits for.
		*out = append(*out, sample{ns: t1.Sub(t0).Nanoseconds(), tag: tagHeavy | tagWrite})
		st.accepted++
		st.pairsChecked += int64(vs.PairsChecked)
	}
	if tr == nil {
		if accepted {
			st.pending = append(st.pending, o.mut)
		}
		return ok
	}
	if !d.replayWrite(st, o, opID, tr, t0, t1, accepted, vs) {
		st.twinMismatch++
		return false
	}
	return ok
}

// replayWrite repeats a write's layer calls on the twin — codec,
// Engine.Validate, Engine.Ship with the member commit and the WAL file
// calls timed inside it — and checks the twin decides as the server
// did.
func (d *wireDriver) replayWrite(st *clientState, o *op, opID int64, tr *tracer, t0, t1 time.Time, accepted bool, vs view.ValidateStats) bool {
	root := tr.add(spRoundTrip, -1, opID, t0, t1, false)
	ops := []view.Mutation{o.mut}
	tw := d.tw
	tw.mu.Lock()
	defer tw.mu.Unlock()
	st.tracedTxs++
	a := time.Now()
	cerr := st.codec.write(uint64(opID), o.mut, vs)
	tr.add(spCodec, root, opID, a, time.Now(), true)
	a = time.Now()
	rejs, _, verr := tw.eng.Validate(d.ctx, ops)
	tr.add(spValidate, root, opID, a, time.Now(), true)
	if cerr != nil || verr != nil {
		return false
	}
	if len(rejs) > 0 {
		return !accepted
	}
	p := tw.probe
	p.events, p.record = p.events[:0], true
	w, s, n := p.walWrites, p.walSyncs, p.walBytes
	pub := tw.eng.CacheStats().Publishes
	a = time.Now()
	serr := tw.eng.Ship(d.ctx, ops)
	b := time.Now()
	p.record = false
	st.walWrites += p.walWrites - w
	st.walSyncs += p.walSyncs - s
	st.walBytes += p.walBytes - n
	st.publishes += tw.eng.CacheStats().Publishes - pub
	ship := tr.add(spShip, root, opID, a, b, true)
	var commits []int32
	for _, ev := range p.events {
		if ev.name == spCommit {
			commits = append(commits, tr.add(spCommit, ship, opID, ev.start, ev.end, true))
		}
	}
	for _, ev := range p.events {
		if ev.name != spWAL {
			continue
		}
		parent := ship
		for _, ci := range commits {
			cs := tr.spans[ci]
			if s := ev.start.Sub(tr.epoch).Nanoseconds(); s >= cs.start && s <= cs.end {
				parent = ci
			}
		}
		tr.add(spWAL, parent, opID, ev.start, ev.end, true)
	}
	return (serr == nil) == accepted
}

// expectedRejection reports whether err is the refusal the script
// expects: the global key constraint for a repeated isbn, the
// bookseller's libprice <= shopprice (Item.oc1) for a bad price —
// whichever layer is the one to object.
func expectedRejection(kind opKind, err error) bool {
	var we *wire.Error
	if !errors.As(err, &we) {
		return false
	}
	text := we.Msg
	for _, r := range we.Rejections {
		text += " " + r.Constraint + " " + r.Detail
	}
	if kind == opDupKey {
		return we.Code == wire.CodeRejected && strings.Contains(text, "key isbn")
	}
	return strings.Contains(text, "Item.oc1") || strings.Contains(text, "libprice <= shopprice")
}

// flush ships the writes the untraced segment acknowledged to the twin,
// batched: the twin's extent must follow the server's for the next
// traced segment and for the oracle.
func (d *wireDriver) flush() error {
	d.tw.mu.Lock()
	defer d.tw.mu.Unlock()
	for _, st := range d.state {
		for _, b := range batches(st.pending, 250) {
			if err := d.tw.eng.Ship(d.ctx, b); err != nil {
				return fmt.Errorf("twin catch-up: %w", err)
			}
		}
		st.pending = st.pending[:0]
	}
	return nil
}

// checkShapes is the read oracle: every hot statement's rows from the
// server must equal the twin's plain scan. It returns the comparisons
// made and failed, and records each statement's row count.
func (d *wireDriver) checkShapes(record bool) (checked, failed int) {
	ref := d.tw.scanEngine()
	cl := d.state[0].cl
	for i, p := range cl.prepared {
		rows, _, err := p.Exec(d.ctx)
		want, _, rerr := ref.RunContext(d.ctx, d.parsed[i])
		checked++
		if err != nil || rerr != nil || !sameRows(rows, want) {
			failed++
			fmt.Fprintf(os.Stderr, "oracle: %s: server %d rows (err %v), scan %d rows (err %v)\n",
				d.in.hot[i].text, len(rows), err, len(want), rerr)
		}
		if record {
			d.expect[i] = len(rows)
		}
	}
	return checked, failed
}

// checkAdhoc compares a sample of distinct ad-hoc texts with the scan.
func (d *wireDriver) checkAdhoc(limit int) (checked, failed int) {
	ref := d.tw.scanEngine()
	seen := map[string]bool{}
	for c, ops := range d.in.scripts {
		n := 0
		for _, o := range ops {
			if o.kind != opQuery || seen[o.text] {
				continue
			}
			if n++; n > limit {
				break
			}
			seen[o.text] = true
			rows, _, err := d.state[c].cl.c.Query(d.ctx, tenantName, o.text)
			q, perr := view.ParseQuery(o.text)
			want, _, rerr := ref.RunContext(d.ctx, q)
			checked++
			if err != nil || perr != nil || rerr != nil || !sameRows(rows, want) {
				failed++
			}
		}
	}
	return checked, failed
}

// checkAcks is the write oracle, run against the live server and again
// against every recovered one: an acknowledged insert or update is
// readable with the value written, an acknowledged delete is gone, a
// refused write left nothing behind.
func (d *wireDriver) checkAcks(c *wire.Client) (checked, failed int) {
	for _, st := range d.state {
		for _, a := range st.acks {
			rows, _, err := c.Query(d.ctx, tenantName,
				fmt.Sprintf("select title, shopprice from Item where isbn = '%s'", a.key))
			ok := err == nil
			switch {
			case !ok:
			case !a.accepted && a.kind == opDupKey:
				// The hot key's original object, not the refused copy.
				ok = len(rows) == 1 && rows[0]["title"].Equal(object.Str("Title "+a.key))
			case !a.accepted || a.kind == opDelete:
				ok = len(rows) == 0
			default:
				ok = len(rows) == 1 && rows[0]["shopprice"].Equal(a.shop)
			}
			checked++
			if !ok {
				failed++
				fmt.Fprintf(os.Stderr, "oracle: write %d on %s (accepted %v): %d rows, err %v\n", a.kind, a.key, a.accepted, len(rows), err)
			}
		}
	}
	return checked, failed
}

// wireSystem is what set-up leaves behind for the timed run.
type wireSystem struct {
	s       *sut
	clients []*client
}

func (w wireSystem) close() {
	for _, c := range w.clients {
		c.c.Close()
	}
	if w.s != nil {
		w.s.stop()
	}
}

// setupWire is the timed set-up of a wire workload: boot, bulk load in
// Tx batches, (durable: close and boot again from the checkpoint), dial
// one connection per client, prepare and warm every statement.
func setupWire(ctx context.Context, in *wireInputs, sc scale, dataDir string) (wireSystem, error) {
	var sys wireSystem
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return sys, err
		}
	}
	s, err := startServer(dataDir)
	if err != nil {
		return sys, err
	}
	sys.s = s
	loader, err := wire.Dial(s.addr)
	if err != nil {
		sys.close()
		return sys, err
	}
	for _, b := range batches(in.load, sc.LoadBatch) {
		if _, _, err := loader.Tx(ctx, tenantName, b, false); err != nil {
			loader.Close()
			sys.close()
			return sys, fmt.Errorf("bulk load: %w", err)
		}
	}
	loader.Close()
	if dataDir != "" {
		s.stop()
		if s, err = startServer(dataDir); err != nil {
			return wireSystem{}, err
		}
		sys.s = s
		if info, ok := s.srv.TenantRecovery(tenantName); !ok || info.ColdStart || info.Replay.ReplayedCommits != 0 {
			sys.close()
			return sys, fmt.Errorf("durable tenant did not restart from its checkpoint with zero replay: %+v", info)
		}
	}
	for range in.scripts {
		cl, err := dialClient(ctx, s.addr, in.hot)
		if err != nil {
			sys.close()
			return sys, err
		}
		sys.clients = append(sys.clients, cl)
	}
	return sys, nil
}

// runWire runs wire-point-read or wire-mixed-durable.
func runWire(name string, e env, spec *benchSpec) (*runOutput, error) {
	ctx := context.Background()
	nc := e.clientCount()
	total := e.sc.OpsPerSecond[name] * e.seconds
	durable := name == wlMixed
	var in *wireInputs
	if durable {
		in = genMixed(e.seed, e.sc, nc, total)
	} else {
		in = genPointRead(e.seed, e.sc, nc, total)
	}
	work := filepath.Join(e.outDir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	dataDir, twinDir := "", ""
	if durable {
		dataDir, twinDir = filepath.Join(work, "data"), filepath.Join(work, "twin")
	}

	sys, setups, err := timeSetups(e.sc.Setups,
		func() (wireSystem, error) { return setupWire(ctx, in, e.sc, dataDir) }, wireSystem.close)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	tw, err := buildTwin(ctx, in.load, e.sc.LoadBatch, twinDir)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	d := &wireDriver{ctx: ctx, in: in, tw: tw, expect: make([]int, len(in.hot))}
	for _, s := range in.hot {
		q, err := view.ParseQuery(s.text)
		if err != nil {
			return nil, err
		}
		d.parsed = append(d.parsed, q)
	}
	for _, cl := range sys.clients {
		n := len(in.hot)
		d.state = append(d.state, &clientState{cl: cl,
			hitNS: make([]int64, n), hits: make([]int64, n), missNS: make([]int64, n), misses: make([]int64, n)})
	}
	ids := tw.objectIDs()
	for c := range in.scripts {
		for i := range in.scripts[c] {
			o := &in.scripts[c][i]
			if o.kind == opUpdate || o.kind == opDelete {
				id, ok := ids[o.key]
				if !ok {
					return nil, fmt.Errorf("twin holds no object for %s", o.key)
				}
				o.mut.ID = id
			}
		}
	}

	out := &runOutput{Workload: name, Config: baseConfig(e, in.hash, nc, total)}
	out.Config["extent_loaded"] = len(in.load)
	out.Config["statements"] = len(in.hot)
	if durable {
		out.Config["wal_sync"] = "SyncAlways"
		out.Config["checkpoint_interval"] = -1
	}
	// The twin warms up as the server did at prepare time.
	for _, q := range d.parsed {
		if _, _, err := tw.eng.RunContext(ctx, q); err != nil {
			return nil, err
		}
	}
	checked, failed := d.checkShapes(true)
	for i, s := range in.hot {
		if durable && (s.kind == "range" || s.kind == "mid") {
			d.expect[i] = -1 // inserts land in ranges
		}
	}

	bytesBefore := int64(0)
	for _, st := range d.state {
		bytesBefore += st.cl.conn.bytes()
	}
	solverBefore := tw.eng.CacheStats().SolverQueries
	untraced, traced, tracers, err := runScripts(d, e.trace)
	if err != nil {
		return nil, err
	}
	wireBytes := -bytesBefore
	for _, st := range d.state {
		wireBytes += st.cl.conn.bytes()
	}
	twinSolver := tw.eng.CacheStats().SolverQueries - solverBefore

	c2, f2 := d.checkShapes(false)
	c3, f3 := d.checkAdhoc(200)
	c4, f4 := d.checkAcks(d.state[0].cl.c)
	checked, failed = checked+c2+c3+c4, failed+f2+f3+f4

	out.EndToEnd = endToEnd(setups, untraced)
	var rec recoveryResult
	if durable {
		rec, err = d.recoveries(e, sys.s, filepath.Join(dataDir, tenantName), work)
		if err != nil {
			return nil, err
		}
		checked, failed = checked+rec.checked, failed+rec.failed
		out.EndToEnd["recovery_ms"] = metric{Value: medianF(rec.ms), Unit: "ms", Samples: len(rec.ms)}
	}
	out.tally(untraced, traced, checked, failed)

	if e.trace {
		sum := summarize(tracers)
		pl := layerMetrics(spec)
		if err := d.layerNumbers(pl, sum, untraced, traced, wireBytes, twinSolver); err != nil {
			return nil, err
		}
		if durable {
			if err := d.storeNumbers(pl, rec, work); err != nil {
				return nil, err
			}
		}
		if durable {
			out.separation(sum, "the write path's own split; no prediction", "store", "view")
		} else {
			out.separation(sum, ">= 80%", "wire", "server")
			out.separation(sum, "< 10%", "view")
			out.Notes = append(out.Notes, fmt.Sprintf("solver queries in the read-only steady state (twin): %d (predicted 0)", twinSolver))
		}
		return out, finishTrace(out, e, pl, tracers, sum, untraced, traced)
	}
	return out, nil
}

// layerNumbers turns the spans and counters of a traced wire run into
// the per-layer metrics.
func (d *wireDriver) layerNumbers(pl map[string]metric, sum traceSummary, untraced, traced phase, wireBytes, twinSolver int64) error {
	var all clientState
	nst := len(d.in.hot)
	all.hitNS, all.hits, all.missNS, all.misses = make([]int64, nst), make([]int64, nst), make([]int64, nst), make([]int64, nst)
	for _, st := range d.state {
		all.add(st.readCounters)
		all.txs += st.txs
		all.accepted += st.accepted
		all.pairsChecked += st.pairsChecked
		all.tracedReads += st.tracedReads
		all.tracedAdhoc += st.tracedAdhoc
		all.tracedTxs += st.tracedTxs
		all.walWrites += st.walWrites
		all.walSyncs += st.walSyncs
		all.walBytes += st.walBytes
		all.publishes += st.publishes
		all.twinMismatch += st.twinMismatch
		for i := 0; i < nst; i++ {
			all.hitNS[i] += st.hitNS[i]
			all.hits[i] += st.hits[i]
			all.missNS[i] += st.missNS[i]
			all.misses[i] += st.misses[i]
		}
	}
	if all.twinMismatch > 0 {
		return fmt.Errorf("twin decided %d writes differently from the server", all.twinMismatch)
	}
	ops := sum.Ops
	allOps := untraced.ops + traced.ops
	perTx := func(ns int64) float64 {
		if all.tracedTxs == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(all.tracedTxs)
	}
	setLayer(pl, "wire.codec_us_per_op", sum.perOp(spCodec, ops), ops)
	setLayer(pl, "wire.bytes_per_op", float64(wireBytes)/float64(allOps), allOps)
	setLayer(pl, "server.residual_us_per_op", sum.perOp(spRoundTrip, ops), ops)
	setLayer(pl, "server.allocs_per_op", float64(untraced.mallocs)/float64(untraced.ops), untraced.ops)
	if all.tracedAdhoc > 0 {
		setLayer(pl, "expr.parse_us_per_query", float64(sum.NameNS[spanNames[spParse]])/1e3/float64(all.tracedAdhoc), int(all.tracedAdhoc))
	}
	if all.tracedReads > 0 {
		setLayer(pl, "view.run_us_per_op", float64(sum.NameNS[spanNames[spRun]])/1e3/float64(all.tracedReads), int(all.tracedReads))
		setLayer(pl, "logic.solver_queries_per_read", float64(twinSolver)/float64(all.tracedReads), int(all.tracedReads))
	}
	all.readCounters.set(pl)
	var hitNS, hits int64
	for i := 0; i < nst; i++ {
		hitNS += all.hitNS[i]
		hits += all.hits[i]
	}
	if hits > 0 {
		setLayer(pl, "view.run_us_per_plan_hit", float64(hitNS)/1e3/float64(hits), int(hits))
	}
	// A statement's first twin run after a publication rebuilds its
	// plan; what that costs beyond the statement's own steady run.
	var extraNS, replans int64
	for i := 0; i < nst; i++ {
		if all.misses[i] == 0 || all.hits[i] == 0 {
			continue
		}
		extraNS += all.missNS[i] - all.misses[i]*(all.hitNS[i]/all.hits[i])
		replans += all.misses[i]
	}
	if replans > 0 {
		setLayer(pl, "view.replan_us_after_write", float64(extraNS)/1e3/float64(replans), int(replans))
	}
	if all.tracedTxs > 0 {
		n := int(all.tracedTxs)
		setLayer(pl, "view.validate_us_per_tx", perTx(sum.NameNS[spanNames[spValidate]]), n)
		setLayer(pl, "view.ship_self_us_per_tx", perTx(sum.NameNS[spanNames[spShip]]), n)
		setLayer(pl, "view.publishes_per_tx", float64(all.publishes)/float64(n), n)
		setLayer(pl, "store.commit_us_per_tx", perTx(sum.NameNS[spanNames[spCommit]]), n)
		setLayer(pl, "store.wal_us_per_tx", perTx(sum.NameNS[spanNames[spWAL]]), n)
		setLayer(pl, "store.wal_bytes_per_tx", float64(all.walBytes)/float64(n), n)
		setLayer(pl, "store.wal_writes_per_tx", float64(all.walWrites)/float64(n), n)
		setLayer(pl, "store.fsyncs_per_tx", float64(all.walSyncs)/float64(n), n)
	}
	if all.accepted > 0 {
		setLayer(pl, "view.pairs_checked_per_tx", float64(all.pairsChecked)/float64(all.accepted), int(all.accepted))
	}
	return nil
}
