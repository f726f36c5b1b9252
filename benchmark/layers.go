package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// Probes that time and count a layer from outside: a store.Backend
// wrapper and a WALFile wrapper on the twin, a net.Conn wrapper on the
// client's own socket, and a replay of the wire codec's public
// functions on an op's real payload.

// probeEvent is one timed store-layer call on the twin.
type probeEvent struct {
	name       uint8 // spCommit or spWAL
	start, end time.Time
}

// storeProbe gathers what the twin's store layer did. The harness
// serialises every twin write (twin.mu), so plain fields suffice.
type storeProbe struct {
	events              []probeEvent
	record              bool // collect events (traced replays only)
	walWrites, walSyncs int64
	walBytes            int64
}

func (p *storeProbe) note(name uint8, start time.Time) {
	if p.record {
		p.events = append(p.events, probeEvent{name: name, start: start, end: time.Now()})
	}
}

// timedBackend wraps a member backend so each transaction's Commit is
// timed.
type timedBackend struct {
	store.Backend
	probe *storeProbe
}

func (b timedBackend) Begin() store.Txn { return &timedTxn{Txn: b.Backend.Begin(), probe: b.probe} }

// timedTxn forwards the optional interfaces the routed shipping path
// looks for, so the wrapped transaction logs exactly what the server's
// does.
type timedTxn struct {
	store.Txn
	probe *storeProbe
}

func (t *timedTxn) Commit() error {
	start := time.Now()
	err := t.Txn.Commit()
	t.probe.note(spCommit, start)
	return err
}

func (t *timedTxn) TagBatch(lsn uint64) {
	if bt, ok := t.Txn.(store.BatchTagger); ok {
		bt.TagBatch(lsn)
	}
}

func (t *timedTxn) LogApplied() error {
	if al, ok := t.Txn.(store.AppliedLogger); ok {
		return al.LogApplied()
	}
	return nil
}

// countingWAL wraps the twin's log file: exact write, byte and fsync
// counts, and the time spent in the file calls.
type countingWAL struct {
	store.WALFile
	probe *storeProbe
}

func (f countingWAL) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.WALFile.Write(b)
	f.probe.note(spWAL, start)
	f.probe.walWrites++
	f.probe.walBytes += int64(n)
	return n, err
}

func (f countingWAL) Sync() error {
	start := time.Now()
	err := f.WALFile.Sync()
	f.probe.note(spWAL, start)
	f.probe.walSyncs++
	return err
}

// countingConn counts the exact bytes a client's socket carries.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) bytes() int64 { return c.read.Load() + c.written.Load() }

// codecReplay repeats the codec work of one round trip with the wire
// package's public functions — request body and frame encoded and
// decoded, response rows (or mutations) encoded and decoded — in the
// protocol's own layout. The two buffers are reused across ops.
type codecReplay struct {
	body, frame []byte
}

func (c *codecReplay) frameRoundTrip(op byte, id uint64) error {
	c.frame = wire.AppendFrame(c.frame[:0], op, id, c.body)
	_, _, err := wire.DecodeFrame(c.frame)
	return err
}

// read replays a query round trip: request (tenant + text, or tenant +
// handle when text is empty) and the rows response.
func (c *codecReplay) read(id uint64, text string, rows []view.Row, stats view.Stats) error {
	c.body = wire.AppendString(c.body[:0], tenantName)
	op := wire.OpQuery
	if text == "" {
		op = wire.OpExec
		c.body = binary.LittleEndian.AppendUint64(c.body, id)
	} else {
		c.body = wire.AppendString(c.body, text)
	}
	if err := c.frameRoundTrip(op, id); err != nil {
		return err
	}
	if _, _, err := wire.DecodeString(c.body); err != nil {
		return err
	}
	c.body = wire.AppendQueryStats(c.body[:0], stats)
	c.body = binary.AppendUvarint(c.body, uint64(len(rows)))
	statsLen := len(c.body)
	for _, r := range rows {
		c.body = wire.AppendRow(c.body, r)
	}
	if err := c.frameRoundTrip(wire.OpRows, id); err != nil {
		return err
	}
	if _, _, err := wire.DecodeQueryStats(c.body); err != nil {
		return err
	}
	off := statsLen
	for range rows {
		_, k, err := wire.DecodeRow(c.body[off:])
		if err != nil {
			return err
		}
		off += k
	}
	return nil
}

// write replays a single-op Tx round trip.
func (c *codecReplay) write(id uint64, m view.Mutation, vs view.ValidateStats) error {
	c.body = wire.AppendString(c.body[:0], tenantName)
	c.body = append(c.body, 0)
	c.body = binary.AppendUvarint(c.body, 1)
	hdr := len(c.body)
	c.body = wire.AppendMutation(c.body, m)
	if err := c.frameRoundTrip(wire.OpTx, id); err != nil {
		return err
	}
	if _, _, err := wire.DecodeMutation(c.body[hdr:]); err != nil {
		return err
	}
	c.body = binary.AppendUvarint(c.body[:0], 1)
	c.body = wire.AppendValidateStats(c.body, vs)
	if err := c.frameRoundTrip(wire.OpTxOK, id); err != nil {
		return err
	}
	_, _, err := wire.DecodeValidateStats(c.body[1:])
	return err
}

// readCounters sums what the program's own Stats said about a client's
// reads: the counts taken at the view layer's boundary.
type readCounters struct {
	reads, planHits, prunedOrDropped int64
	scanned, rowsReturned            int64
}

func (c *readCounters) note(stats view.Stats, rows int) {
	c.reads++
	c.scanned += int64(stats.Scanned)
	c.rowsReturned += int64(rows)
	if stats.PlanCached {
		c.planHits++
	}
	if stats.PrunedEmpty || stats.DroppedConjuncts > 0 {
		c.prunedOrDropped++
	}
}

func (c *readCounters) add(o readCounters) {
	c.reads += o.reads
	c.planHits += o.planHits
	c.prunedOrDropped += o.prunedOrDropped
	c.scanned += o.scanned
	c.rowsReturned += o.rowsReturned
}

// set writes the view-layer ratios the counters give.
func (c readCounters) set(pl map[string]metric) {
	if c.reads > 0 {
		setLayer(pl, "view.plan_hit_rate", float64(c.planHits)/float64(c.reads), int(c.reads))
		setLayer(pl, "view.pruned_or_dropped_ratio", float64(c.prunedOrDropped)/float64(c.reads), int(c.reads))
	}
	if c.rowsReturned > 0 {
		setLayer(pl, "view.scanned_per_row_returned", float64(c.scanned)/float64(c.rowsReturned), int(c.rowsReturned))
	}
}

// liveAttrBytes is the size of the members' live attribute data: every
// stored attribute's name plus its binary value encoding.
func liveAttrBytes(stores ...*store.Store) int64 {
	var n int64
	var buf []byte
	for _, st := range stores {
		for _, c := range st.Schema().Classes() {
			for _, o := range st.DirectExtent(c.Name) {
				for k, v := range o.Attrs() {
					buf = wire.AppendValue(buf[:0], v)
					n += int64(len(k) + len(buf))
				}
			}
		}
	}
	return n
}

// rowKey renders a row canonically, for multiset comparison.
func rowKey(r view.Row) string {
	names := make([]string, 0, len(r))
	for k := range r {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf []byte
	for _, k := range names {
		buf = append(buf, k...)
		buf = append(buf, '=')
		buf = append(buf, valueString(r[k])...)
		buf = append(buf, ';')
	}
	return string(buf)
}

func valueString(v object.Value) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T:%s", v, v)
}

// sameRows reports whether two results hold the same multiset of rows.
func sameRows(a, b []view.Row) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, r := range a {
		seen[rowKey(r)]++
	}
	for _, r := range b {
		k := rowKey(r)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}
