package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

var listeningLine = regexp.MustCompile(`(binary transport|interopd) listening on (\S+)`)

// TestDaemonSmoke boots the real binary on kernel-chosen ports, reads
// the two bound addresses from its "listening" log lines, serves a
// query, a transaction and /metrics over HTTP and a prepared Exec and a
// Tx over the binary transport off the one engine, and drains it with
// SIGTERM: the end-to-end proof, outside httptest, that both fronts
// serve and shut down cleanly.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	bin := filepath.Join(t.TempDir(), "interopd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("serve", func(t *testing.T) {
		const drain = 5 * time.Second
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0",
			"-tenant", "figure1=figure1", "-drain-timeout", drain.String())
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill() // no-op after a clean exit

		// One reader owns the pipe until EOF (the process has exited):
		// it hands over the two addresses as they are logged and keeps
		// the whole log for a failure report.
		httpAddr, wireAddr := make(chan string, 1), make(chan string, 1)
		logged := make(chan string, 1)
		go func() {
			var log strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				log.WriteString(sc.Text() + "\n")
				if m := listeningLine.FindStringSubmatch(sc.Text()); m != nil {
					if m[1] == "interopd" {
						httpAddr <- m[2]
					} else {
						wireAddr <- m[2]
					}
				}
			}
			logged <- log.String()
		}()
		addrOf := func(what string, c <-chan string) string {
			select {
			case a := <-c:
				return a
			case log := <-logged:
				t.Fatalf("daemon exited before announcing its %s listener:\n%s", what, log)
			case <-time.After(30 * time.Second):
				t.Fatalf("no %s listening line within 30s", what)
			}
			return ""
		}
		wa := addrOf("binary", wireAddr)
		base := "http://" + addrOf("HTTP", httpAddr)

		post := func(path, body string) string {
			t.Helper()
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d body %s", path, resp.StatusCode, out)
			}
			return string(out)
		}
		if out := post("/v1/figure1/query", `{"q":"select title from Item where shopprice < 50"}`); !strings.Contains(out, `"rows"`) {
			t.Errorf("HTTP query answered without rows: %s", out)
		}
		post("/v1/figure1/tx", `{"ops":[{"kind":"insert","class":"Item","attrs":{
			"title":{"t":"str","v":"Smoke"},"isbn":{"t":"str","v":"smoke-http"},
			"shopprice":{"t":"real","v":30},"libprice":{"t":"real","v":25}}}]}`)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c, err := wire.Dial(wa)
		if err != nil {
			t.Fatalf("wire dial %s: %v", wa, err)
		}
		defer c.Close()
		p, err := c.Prepare(ctx, "figure1", "select title from Item where isbn = 'smoke-http'")
		if err != nil {
			t.Fatalf("wire prepare: %v", err)
		}
		// One engine behind both fronts: the HTTP insert is served here.
		if rows, _, err := p.Exec(ctx); err != nil || len(rows) != 1 {
			t.Fatalf("wire exec: %d rows, err %v; want the row inserted over HTTP", len(rows), err)
		}
		if n, _, err := c.Tx(ctx, "figure1", []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("Smoke"), "isbn": object.Str("smoke-wire"),
			"shopprice": object.Real(30), "libprice": object.Real(25),
		}}}, false); err != nil || n != 1 {
			t.Fatalf("wire tx: applied %d, err %v", n, err)
		}

		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, ep := range []string{`"query"`, `"tx"`, `"wire_prepare"`, `"wire_exec"`, `"wire_tx"`} {
			if !strings.Contains(string(metrics), ep) {
				t.Errorf("/metrics does not list endpoint %s: %s", ep, metrics)
			}
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case log := <-logged: // EOF: every read is done, Wait may close the pipe
			if err := cmd.Wait(); err != nil {
				t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, log)
			}
		case <-time.After(drain):
			t.Fatalf("daemon still running after SIGTERM and its %v drain timeout", drain)
		}
	})

	// A failed bind is an exit 1 before any "listening" line, not a
	// daemon that announces a port it never got.
	t.Run("port in use", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		out, err := exec.Command(bin, "-addr", ln.Addr().String(), "-tenant", "figure1=figure1").CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("exit = %v, want status 1\n%s", err, out)
		}
		if strings.Contains(string(out), "listening") {
			t.Errorf("announced a listener it could not bind:\n%s", out)
		}
	})
}
