package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/wire"
)

// TestServerMaxConns: the connection over the cap is answered with the
// typed max-clients error and closed; capacity freed by a disconnect is
// reusable.
func TestServerMaxConns(t *testing.T) {
	srv := startTestServer(t, Config{
		Store:    StoreConfig{Shards: 1, Capacity: 64},
		MaxConns: 1,
	})

	r1, w1, c1 := dialTestServer(t, srv)
	w1.WriteCommandString("PING")
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep, err := r1.ReadReply(); err != nil || rep.Text() != "PONG" {
		t.Fatalf("first conn PING = %v, %v", rep, err)
	}

	// Second connection: rejected with the documented error, then closed.
	c2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	rep, err := wire.NewReader(c2).ReadReply()
	if err != nil || !rep.IsError() || rep.Text() != MaxClientsMsg {
		t.Fatalf("over-cap conn reply = %v, %v; want -%s", rep, err, MaxClientsMsg)
	}
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap conn left open after rejection")
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Accepted != 1 {
		t.Fatalf("Stats = %+v, want Accepted=1 Rejected=1", st)
	}

	// Freeing the slot admits the next client.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		w3 := wire.NewWriter(c3)
		w3.WriteCommandString("PING")
		w3.Flush()
		c3.SetReadDeadline(time.Now().Add(2 * time.Second))
		rep, err := wire.NewReader(c3).ReadReply()
		c3.Close()
		if err == nil && rep.Text() == "PONG" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not reusable after disconnect: %v, %v", rep, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerIdleTimeout: a connection that goes quiet between batches is
// closed by the server and counted.
func TestServerIdleTimeout(t *testing.T) {
	srv := startTestServer(t, Config{
		Store:   StoreConfig{Shards: 1, Capacity: 64},
		Timeout: 50 * time.Millisecond,
	})
	r, w, c := dialTestServer(t, srv)

	// Active traffic is unaffected.
	w.WriteCommandString("PING")
	w.Flush()
	if rep, err := r.ReadReply(); err != nil || rep.Text() != "PONG" {
		t.Fatalf("PING = %v, %v", rep, err)
	}

	// Then silence: the server should hang up.
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("idle connection not closed by server")
	}
	if st := srv.Stats(); st.IdleTimeouts != 1 {
		t.Fatalf("IdleTimeouts = %d, want 1", st.IdleTimeouts)
	}
}

// TestServerReadTimeoutTornFrame: a command that starts arriving and then
// stalls mid-frame cannot hold the connection open past Timeout.
func TestServerReadTimeoutTornFrame(t *testing.T) {
	srv := startTestServer(t, Config{
		Store:   StoreConfig{Shards: 1, Capacity: 64},
		Timeout: 50 * time.Millisecond,
	})
	_, _, c := dialTestServer(t, srv)

	// Half a multibulk frame, then nothing.
	if _, err := c.Write([]byte("*2\r\n$3\r\nGET\r\n$5\r\nab")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("torn frame held the connection open")
	}
	if st := srv.Stats(); st.IdleTimeouts != 1 {
		t.Fatalf("IdleTimeouts = %d, want 1 (read deadline shares the counter)", st.IdleTimeouts)
	}
}

// TestServerPanicRecovery: DEBUG PANIC crashes inside a shard execution; the
// command gets a typed protocol-error-derived reply, the connection and the
// shard stay alive, and the counters record it.
func TestServerPanicRecovery(t *testing.T) {
	srv := startTestServer(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	r, w, _ := dialTestServer(t, srv)

	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("DEBUG", "PANIC")
	w.WriteCommandString("GET", "k")
	w.Flush()

	wantOK(t, mustReply(t, r))
	rep := mustReply(t, r)
	if !rep.IsError() || !strings.Contains(rep.Text(), "internal panic") {
		t.Fatalf("DEBUG PANIC reply = %v, want internal-panic error", rep)
	}
	// The shard survived: the pipelined GET after the crash answers.
	wantBulk(t, mustReply(t, r), "v")

	if st := srv.Stats(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
	pe := srv.Store().LastPanic()
	if pe == nil || !strings.Contains(pe.Detail, "internal panic") {
		t.Fatalf("LastPanic = %v, want recorded *wire.ProtocolError", pe)
	}
}

// TestServerShutdownDrains: a pipeline batch in flight when Shutdown is
// called executes to completion and every reply reaches the client — no
// EOF mid-reply — while an idle connection closes immediately. With a
// deadline armed the idle connection still closes at once, not when its
// read deadline expires: a read arming its deadline never overwrites the
// expired one Shutdown's interrupt set.
func TestServerShutdownDrains(t *testing.T) {
	for _, timeout := range []time.Duration{0, 10 * time.Second} {
		t.Run("timeout="+timeout.String(), func(t *testing.T) { testServerShutdownDrains(t, timeout) })
	}
}

func testServerShutdownDrains(t *testing.T, timeout time.Duration) {
	srv, serveDone := startServerCapture(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}, Timeout: timeout})
	r, w, c := dialTestServer(t, srv)
	idleR, _, idleC := dialTestServer(t, srv)

	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("DEBUG", "SLEEP", "0.3")
	w.WriteCommandString("GET", "k")
	w.Flush()
	// Let the batch reach the shard's lock before shutting down.
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}

	// All three replies arrived intact despite the shutdown racing the batch.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	wantOK(t, mustReply(t, r))
	wantOK(t, mustReply(t, r))
	wantBulk(t, mustReply(t, r), "v")
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("connection still open after drain")
	}

	// The idle connection was closed without a reply, not left to time out.
	idleC.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idleR.ReadReply(); err == nil || isTimeout(err) {
		t.Fatalf("idle connection survived Shutdown: read = %v", err)
	}

	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
}

// TestServerShutdownExpiredContext: a context that is already done forces
// the stragglers closed and surfaces both typed errors.
func TestServerShutdownExpiredContext(t *testing.T) {
	srv, serveDone := startServerCapture(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	_, w, _ := dialTestServer(t, srv)
	w.WriteCommandString("DEBUG", "SLEEP", "0.5")
	w.Flush()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, ErrServerClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown(canceled ctx) = %v, want ErrServerClosed wrapping context.Canceled", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
}

// TestServerCloseIdempotent: repeated and concurrent Close calls all
// succeed, and Serve reports the single typed ErrServerClosed.
func TestServerCloseIdempotent(t *testing.T) {
	srv, serveDone := startServerCapture(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { done <- srv.Close() }()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Close = %v, want nil", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Close = %v, want nil", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
}

// TestServerSlowReaderDisconnect: a client that stops reading while large
// replies are in flight is dropped instead of pinning server memory.
func TestServerSlowReaderDisconnect(t *testing.T) {
	srv := startTestServer(t, Config{
		Store:   StoreConfig{Shards: 1, Capacity: 64},
		Timeout: 100 * time.Millisecond,
	})
	r, w, _ := dialTestServer(t, srv)

	big := bytes.Repeat([]byte("x"), 64<<10)
	w.WriteCommand([]byte("SET"), []byte("big"), big)
	w.Flush()
	wantOK(t, mustReply(t, r))

	// Ask for megabytes of replies and never read them.
	for i := 0; i < 64; i++ {
		w.WriteCommandString("GET", "big")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SlowReaderDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader never dropped: Stats = %+v", srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startServerCapture is startTestServer, but returning Serve's error.
func startServerCapture(t *testing.T, cfg Config) (*Server, chan error) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() { srv.Close() })
	return srv, serveDone
}

func mustReply(t *testing.T, r *wire.Reader) wire.Reply {
	t.Helper()
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
