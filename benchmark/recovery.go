package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"interopdb"
	"interopdb/internal/store"
	"interopdb/internal/wire"
)

// recoveryResult is what the crash-image boots of wire-mixed-durable
// measured.
type recoveryResult struct {
	ms              []float64
	checked, failed int
	image           string // the crash image: checkpoint + WAL tail
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoveries copies the tenant's data directory after the last ack —
// the server still running, so the copy is a crash image: the boot-time
// checkpoint plus the WAL tail of every write since — and boots a fresh
// server over a copy of it Recoveries times. recovery_ms is server.New
// to the first prepared query answered. Every boot then faces the write
// oracle.
func (d *wireDriver) recoveries(e env, live *sut, tenantDir, work string) (recoveryResult, error) {
	res := recoveryResult{image: filepath.Join(work, "crash", tenantName)}
	if err := copyDir(tenantDir, res.image); err != nil {
		return res, err
	}
	for r := 0; r < e.sc.Recoveries; r++ {
		root := filepath.Join(work, fmt.Sprintf("boot-%d", r))
		if err := copyDir(res.image, filepath.Join(root, tenantName)); err != nil {
			return res, err
		}
		start := time.Now()
		s, err := startServer(root)
		if err != nil {
			return res, fmt.Errorf("recovery boot %d: %w", r, err)
		}
		c, err := wire.Dial(s.addr)
		if err != nil {
			s.stop()
			return res, err
		}
		p, err := c.Prepare(d.ctx, tenantName, d.in.hot[0].text)
		if err == nil {
			_, _, err = p.Exec(d.ctx)
		}
		res.ms = append(res.ms, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			c.Close()
			s.stop()
			return res, fmt.Errorf("recovery boot %d: first query: %w", r, err)
		}
		checked, failed := d.checkAcks(c)
		res.checked += checked
		res.failed += failed
		c.Close()
		s.stop()
		if err := os.RemoveAll(root); err != nil {
			return res, err
		}
	}
	return res, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// storeNumbers measures the store layer's recovery and checkpoint work
// through its public functions: the three recovery steps on a copy of
// the crash image, a checkpoint of the twin, and the space the crash
// image takes per byte of live attribute data.
func (d *wireDriver) storeNumbers(pl map[string]metric, rec recoveryResult, work string) error {
	dir := filepath.Join(work, "steps")
	if err := copyDir(rec.image, dir); err != nil {
		return err
	}
	ms := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	t := time.Now()
	ckpt, err := store.ReadCheckpoint(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		return err
	}
	setLayer(pl, "store.recover_read_ckpt_ms", ms(t), 1)
	t = time.Now()
	wal, recs, err := store.OpenWAL(filepath.Join(dir, "wal.log"), store.WALOptions{})
	if err != nil {
		return err
	}
	setLayer(pl, "store.recover_scan_wal_ms", ms(t), len(recs))
	lib, bs := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	t = time.Now()
	_, err = store.BuildRecovery(ckpt, recs, wal.Damage()).Replay(map[string]*store.Store{lib.Name(): lib, bs.Name(): bs})
	setLayer(pl, "store.recover_replay_ms", ms(t), len(recs))
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	setLayer(pl, "store.recovery_ms", medianF(rec.ms), len(rec.ms))

	imageBytes := fileSize(filepath.Join(rec.image, "checkpoint.db")) + fileSize(filepath.Join(rec.image, "wal.log"))
	if live := liveAttrBytes(d.tw.stores...); live > 0 {
		setLayer(pl, "store.space_amp", float64(imageBytes)/float64(live), int(live))
	}

	d.tw.mu.Lock()
	defer d.tw.mu.Unlock()
	t = time.Now()
	if err := d.tw.dur.Checkpoint(d.tw.fed); err != nil {
		return err
	}
	setLayer(pl, "store.checkpoint_ms", ms(t), 1)
	setLayer(pl, "store.checkpoint_bytes", float64(fileSize(filepath.Join(d.tw.dir, "checkpoint.db"))), 1)
	return nil
}
