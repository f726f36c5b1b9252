package server

import (
	"context"
	"errors"
	"sync"

	"interopdb/internal/view"
)

// txBatcher coalesces concurrent tx requests against one tenant into
// combined routed batches. The engine's Ship holds the write lock and
// publishes one snapshot per call, so N requests shipped as one batch
// pay one lock acquisition and one copy-on-write publication instead of
// N — the amortisation view.publishes_per_tx counts for in-process
// batches, now applied across wire clients. Requests are validated by the handler
// BEFORE enqueueing, so a combined-batch failure is almost always a
// staging error (rolled back on every member); the batcher then falls
// back to shipping each request alone, so one poisoned request cannot
// sink its peers. The one failure it never retries is a partial commit
// (view.ErrPartialCommit): re-shipping would double-apply the part an
// autonomous member already committed, so every waiting request gets
// the federation-repair error as-is.
type txBatcher struct {
	ship func(ops []view.Mutation) error

	mu      sync.Mutex
	pending []*txRequest
	closed  bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// txRequest is one enqueued wire transaction awaiting shipment.
type txRequest struct {
	ops  []view.Mutation
	errc chan error
}

func newTxBatcher(ship func(ops []view.Mutation) error) *txBatcher {
	b := &txBatcher{
		ship: ship,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// enqueue submits a validated batch and blocks until it is shipped (or
// the server shuts down, or ctx is cancelled — the batch itself still
// ships; cancellation only stops the wait, matching the engine's
// post-commit contract).
func (b *txBatcher) enqueue(ctx context.Context, ops []view.Mutation) error {
	req := &txRequest{ops: ops, errc: make(chan error, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("server is shutting down")
	}
	b.pending = append(b.pending, req)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	select {
	case err := <-req.errc:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the drain loop: each cycle takes everything pending and ships
// it as one combined batch.
func (b *txBatcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.wake:
			b.drain()
		case <-b.stop:
			b.drain() // requests enqueued before close still ship
			return
		}
	}
}

func (b *txBatcher) drain() {
	b.mu.Lock()
	reqs := b.pending
	b.pending = nil
	b.mu.Unlock()
	switch len(reqs) {
	case 0:
	case 1:
		reqs[0].errc <- b.ship(reqs[0].ops)
	default:
		combined := make([]view.Mutation, 0, len(reqs)*2)
		for _, r := range reqs {
			combined = append(combined, r.ops...)
		}
		err := b.ship(combined)
		var stranded *view.PartialCommitError
		if err == nil || errors.As(err, &stranded) {
			for _, r := range reqs {
				r.errc <- err
			}
			return
		}
		// Combined staging failure: everything rolled back. Isolate the
		// poisoned request by shipping each batch alone.
		for _, r := range reqs {
			r.errc <- b.ship(r.ops)
		}
	}
}

// close drains outstanding requests and stops the loop. Safe to call
// once per batcher.
func (b *txBatcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}
