package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestIngestDeadline pins what POST /v1/admin/ingest answers around its
// deadline: a callback that gives up at the deadline installs nothing
// and answers a counted 503; a callback that commits after the deadline
// answers 200 with the generation it installed, not the late-write 503.
func TestIngestDeadline(t *testing.T) {
	t.Run("expired", func(t *testing.T) {
		s := testServer(t, Options{RequestTimeout: 20 * time.Millisecond,
			Ingest: func(ctx context.Context, _ string) (IngestSummary, error) {
				<-ctx.Done()
				return IngestSummary{}, ctx.Err()
			}})
		gen := s.Generation()
		code, body := postIngest(t, s, "doc")
		if code != http.StatusServiceUnavailable || string(body) != timeoutBody {
			t.Fatalf("expired ingest = %d %s, want 503 %s", code, body, timeoutBody)
		}
		if got := s.Metrics().Endpoints["admin_ingest"].Errors; got != 1 {
			t.Fatalf("admin_ingest errors = %d, want 1", got)
		}
		if got := s.Generation(); got != gen {
			t.Fatalf("generation after expired ingest = %d, want %d", got, gen)
		}
	})
	t.Run("late commit", func(t *testing.T) {
		var s *Server
		s = testServer(t, Options{RequestTimeout: 20 * time.Millisecond,
			Ingest: func(ctx context.Context, _ string) (IngestSummary, error) {
				<-ctx.Done()
				return IngestSummary{Generation: s.Swap(s.snap.Load().db), Documents: 1}, nil
			}})
		code, body := postIngest(t, s, "doc")
		var sum IngestSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatalf("late ingest body %s: %v", body, err)
		}
		if code != http.StatusOK || sum.Generation != s.Generation() || sum.Generation < 2 {
			t.Fatalf("late ingest = %d %s, want 200 carrying generation %d", code, body, s.Generation())
		}
		if got := s.Metrics().Endpoints["admin_ingest"].Errors; got != 0 {
			t.Fatalf("admin_ingest errors = %d, want 0", got)
		}
	})
}

// TestReloadDeadline: a reloader that gives up at the request deadline
// answers 503 and leaves the served snapshot alone, and a reload or
// ingest whose deadline passed while it waited behind another commit
// never calls its callback.
func TestReloadDeadline(t *testing.T) {
	s := testServer(t, Options{RequestTimeout: 20 * time.Millisecond})
	s.opts.Reloader = func(ctx context.Context) (uint64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	gen := s.Generation()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/reload", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutBody {
		t.Fatalf("expired reload = %d %s, want 503 %s", rec.Code, rec.Body, timeoutBody)
	}
	if got := s.Metrics().Endpoints["admin_reload"].Errors; got != 1 {
		t.Fatalf("admin_reload errors = %d, want 1", got)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("generation after expired reload = %d, want %d", got, gen)
	}

	var calls atomic.Int32
	s.opts.Reloader = func(context.Context) (uint64, error) {
		calls.Add(1)
		return s.Swap(s.snap.Load().db), nil
	}
	s.opts.Ingest = func(context.Context, string) (IngestSummary, error) {
		calls.Add(1)
		return IngestSummary{Generation: s.Swap(s.snap.Load().db), Documents: 1}, nil
	}
	for _, path := range []string{"/v1/admin/reload", "/v1/admin/ingest"} {
		t.Run("queued "+path, func(t *testing.T) {
			s.commitMu.Lock()
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader("doc")))
			}()
			time.Sleep(60 * time.Millisecond)
			s.commitMu.Unlock()
			<-done
			if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutBody || calls.Load() != 0 {
				t.Fatalf("%s expired while queued = %d %s with %d callback calls, want 503 %s and 0",
					path, rec.Code, rec.Body, calls.Load(), timeoutBody)
			}
			if got := s.Generation(); got != gen {
				t.Fatalf("generation after queued expired %s = %d, want %d", path, got, gen)
			}
		})
	}
}

// listenTransport runs hs on its own loopback listener until the test
// ends and returns the listener's address.
func listenTransport(t *testing.T, hs *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String()
}

// TestSlowIngestBodyCutOff: an ingest body still incomplete at the
// transport's ReadTimeout is cut off with a 408 before the ingest
// callback ever runs. The client trickles a byte every 50ms and stops
// halfway to the cut, so the server closes a drained
// connection and the 408 is not lost to a reset.
func TestSlowIngestBodyCutOff(t *testing.T) {
	t.Parallel()
	var called atomic.Bool
	s := testServer(t, Options{RequestTimeout: 500 * time.Millisecond,
		Ingest: func(context.Context, string) (IngestSummary, error) {
			called.Store(true)
			return IngestSummary{}, nil
		}})
	hs := s.httpServer()
	addr := listenTransport(t, hs)
	// The server's ReadTimeout clock starts once it has accepted the
	// connection, which can be before Dial returns here, so the lower
	// bound is measured from before the dial.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/admin/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		quiet := time.After(hs.ReadTimeout / 2)
		for {
			select {
			case <-stop:
				return
			case <-quiet:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte("x")); err != nil {
					return
				}
			}
		}
	}()
	conn.SetReadDeadline(time.Now().Add(hs.ReadTimeout + 5*time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to the trickled body: %v", err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("trickled body = %d, want 408", resp.StatusCode)
	}
	if elapsed < hs.ReadTimeout || elapsed > hs.ReadTimeout+time.Second {
		t.Fatalf("trickled body cut off after %v, want just past ReadTimeout %v", elapsed, hs.ReadTimeout)
	}
	if called.Load() {
		t.Fatal("ingest callback ran on a body that never arrived")
	}
}

// TestUnreadResponseDisconnects: a client that never reads a large
// /metrics response is disconnected within RequestTimeout plus the
// transport grace, instead of holding the connection and its handler.
func TestUnreadResponseDisconnects(t *testing.T) {
	t.Parallel()
	// ~8 MB of exposition: more than the loopback socket buffers hold.
	reg := obs.NewRegistry()
	pad := strings.Repeat("p", 1000)
	for i := 0; i < 8000; i++ {
		reg.Counter("padding_total", "Response padding.", obs.L("pad", pad+strconv.Itoa(i)))
	}
	s := testServer(t, Options{RequestTimeout: 50 * time.Millisecond, Observability: reg})
	hs := s.httpServer()
	closed := make(chan struct{})
	hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			close(closed)
		}
	}
	conn, err := net.Dial("tcp", listenTransport(t, hs))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	limit := s.opts.RequestTimeout + transportGrace
	select {
	case <-closed:
		if elapsed := time.Since(start); elapsed > limit+time.Second {
			t.Fatalf("unread response held its connection for %v, want at most %v", elapsed, limit)
		}
	case <-time.After(limit + 5*time.Second):
		t.Fatalf("unread response still holds its connection after %v", limit+5*time.Second)
	}
}

// TestProfileOutlivesWriteTimeout: a CPU profile longer than the
// transport's WriteTimeout still answers 200.
func TestProfileOutlivesWriteTimeout(t *testing.T) {
	t.Parallel()
	s := testServer(t, Options{RequestTimeout: 50 * time.Millisecond, EnableProfiling: true})
	hs := s.httpServer()
	addr := listenTransport(t, hs)
	secs := int(hs.WriteTimeout/time.Second) + 1
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the %ds profile: %v", secs, err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("%ds profile past WriteTimeout %v = %d with %d bytes, want 200 with a profile", secs, hs.WriteTimeout, resp.StatusCode, len(body))
	}
}

// TestProfiledOutlivesWriteTimeout runs profiled around a stand-in for
// Go 1.22's pprof, which refuses a profile at least as long as the
// server's WriteTimeout and leaves the write deadline alone: the
// stand-in must not find the server, and its late write must still
// reach the client.
func TestProfiledOutlivesWriteTimeout(t *testing.T) {
	t.Parallel()
	const secs = 0.4
	oldPprof := func(w http.ResponseWriter, r *http.Request) {
		if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok && srv.WriteTimeout != 0 && secs >= srv.WriteTimeout.Seconds() {
			http.Error(w, "profile duration exceeds server's WriteTimeout", http.StatusBadRequest)
			return
		}
		time.Sleep(time.Duration(secs * float64(time.Second)))
		io.WriteString(w, "profile")
	}
	hs := &http.Server{Handler: profiled(oldPprof), WriteTimeout: 200 * time.Millisecond}
	addr := listenTransport(t, hs)
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%v", addr, secs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the %vs profile: %v", secs, err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "profile" {
		t.Fatalf("%vs profile past WriteTimeout %v = %d %q, want 200 \"profile\"", secs, hs.WriteTimeout, resp.StatusCode, body)
	}
}
