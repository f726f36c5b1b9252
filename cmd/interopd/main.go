// Command interopd serves federations over HTTP/JSON: multi-tenant
// hosting of integrated views with constraint-optimised queries,
// validated transactions, runtime attach/detach, admission control,
// /metrics and pprof.
//
// Quick start:
//
//	interopd -addr :7070
//	curl -s localhost:7070/v1/figure1/query -d '{"q":"select title from Item where shopprice < 50"}'
//	curl -s localhost:7070/v1/figure1/tx -d '{"ops":[{"kind":"insert","class":"Item","attrs":{
//	    "title":{"t":"str","v":"New"},"isbn":{"t":"str","v":"x-1"},
//	    "shopprice":{"t":"real","v":30},"libprice":{"t":"real","v":25}}}]}'
//	curl -s localhost:7070/metrics
//
// With -data-dir the server is durable: each tenant keeps a
// write-ahead log and checkpoints under <data-dir>/<tenant>, every
// acknowledged transaction is fsynced before the response, and a
// restart with the same flags recovers each tenant — member extents,
// solver memo, derived constraints, and query plans — so the first
// post-restart query is already a plan-cache hit:
//
//	interopd -addr :7070 -data-dir /var/lib/interopd
//	curl -s localhost:7070/v1/figure1/health | jq .durability
//
// By default the server boots hosting two tenants — figure1 (the
// paper's bibliographic pair) and personnel (the introduction's
// departments) — so it is immediately queryable; -tenant trims or
// extends the preload list. SIGINT/SIGTERM drain gracefully: new
// requests are refused with 503 while in-flight queries and enqueued
// transaction batches finish; a durable server then writes each
// tenant's final checkpoint so the next boot replays nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"interopdb/internal/server"
	"interopdb/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	wireAddr := flag.String("wire-addr", "",
		"binary transport listen address (e.g. :7071); empty disables the framed protocol listener")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "admitted concurrent /v1 requests (excess get 429)")
	tenants := flag.String("tenant", "figure1=figure1,personnel=personnel",
		"comma-separated name=fixture preload list (fixtures: figure1, personnel); empty boots no tenants")
	quiet := flag.Bool("quiet", false, "suppress request logging")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	reconcileInterval := flag.Duration("reconcile-interval", server.DefaultReconcileInterval,
		"background partial-commit reconcile cadence (0 uses the default, negative disables)")
	dataDir := flag.String("data-dir", "",
		"durable data directory; each tenant gets <data-dir>/<name> with a write-ahead log and checkpoints, and restarts recover it (empty serves ephemerally)")
	checkpointInterval := flag.Duration("checkpoint-interval", server.DefaultCheckpointInterval,
		"durable-tenant checkpoint cadence bounding crash-recovery replay (0 uses the default, negative leaves only the drain-time checkpoint)")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := server.New(server.Config{
		MaxInFlight:        *maxInFlight,
		Logf:               logf,
		ReconcileInterval:  *reconcileInterval,
		DataDir:            *dataDir,
		CheckpointInterval: *checkpointInterval,
	})

	if *tenants != "" {
		for _, spec := range strings.Split(*tenants, ",") {
			name, fixture, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "interopd: bad -tenant entry %q (want name=fixture)\n", spec)
				os.Exit(2)
			}
			if err := srv.AddTenant(name, fixture); err != nil {
				fmt.Fprintf(os.Stderr, "interopd: preloading tenant %s: %v\n", name, err)
				os.Exit(1)
			}
			switch info, durable := srv.TenantRecovery(name); {
			case durable && !info.ColdStart:
				logf("tenant %s recovered (fixture %s): %d object(s) restored, %d commit(s) replayed, %d memo entr(ies), %d plan(s) warmed",
					name, fixture, info.Replay.RestoredObjects, info.Replay.ReplayedCommits, info.MemoEntries, info.PlansWarmed)
			case durable:
				logf("tenant %s ready (fixture %s, durable cold start)", name, fixture)
			default:
				logf("tenant %s ready (fixture %s)", name, fixture)
			}
		}
	}

	// The signal handler is installed and both listeners are bound
	// before anything is announced, so a "listening" line names an
	// address that is already accepting (-addr 127.0.0.1:0 is
	// discoverable from the log) and a SIGTERM sent on reading it drains
	// instead of killing.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "interopd: listen: %v\n", err)
		os.Exit(1)
	}
	var wln net.Listener
	if *wireAddr != "" {
		if wln, err = net.Listen("tcp", *wireAddr); err != nil {
			fmt.Fprintf(os.Stderr, "interopd: wire listen: %v\n", err)
			os.Exit(1)
		}
	}

	// ReadHeaderTimeout bounds slowloris header dribble; IdleTimeout
	// reclaims keep-alive connections parked between requests. (The
	// binary listener enforces the analogous per-frame deadlines itself.)
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 2) // one send per listener goroutine
	go func() { errc <- hs.Serve(ln) }()

	var ws *wire.Server
	if wln != nil {
		ws = srv.WireServer()
		go func() { errc <- ws.Serve(wln) }()
		logf("binary transport listening on %s", wln.Addr())
	}
	logf("interopd listening on %s (%d tenants, max %d in flight)", ln.Addr(), len(srv.Tenants()), *maxInFlight)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "interopd: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		logf("received %v, draining", s)
	}

	// Drain order matters: refuse new work, let http.Server wait out
	// in-flight handlers (tenant batchers must still be running for
	// enqueued transactions to ship), then stop the batchers.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "interopd: shutdown: %v\n", err)
	}
	if ws != nil {
		if err := ws.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "interopd: wire shutdown: %v\n", err)
		}
	}
	srv.Close()
	logf("drained, exiting")
}
