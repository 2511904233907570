package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/adjusted-objects/dego/internal/wire"
)

// ErrServerClosed is returned by Serve after Close or Shutdown, and by
// Shutdown, wrapping the context error, when the drain did not finish in
// time. It is the single typed "server is done" signal — callers never see
// the underlying listener's close-ordering errors.
var ErrServerClosed = errors.New("server: closed")

// MaxClientsMsg is the error-reply text a connection refused at the
// MaxConns cap receives before the server closes it, mirroring redis'
// "max number of clients reached" rejection. docs/PROTOCOL.md documents
// the client-visible contract.
const MaxClientsMsg = "ERR max clients reached"

// maxPipeline caps how many pipelined commands one batch executes before
// its replies are flushed.
const maxPipeline = 256

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address; "" means "127.0.0.1:0" (an ephemeral
	// port, reported by Addr after Listen).
	Addr string
	// Listener, if non-nil, is served instead of binding Addr — the hook
	// the chaos suite uses to interpose internal/faultnet between server
	// and clients.
	Listener net.Listener
	// Store sizes the sharded keyspace.
	Store StoreConfig
	// MaxConns caps concurrently served connections; one over the cap is
	// answered -ERR max clients reached (MaxClientsMsg) and closed.
	// 0 means unlimited.
	MaxConns int
	// Timeout bounds each read from and each write to a connection: a peer
	// silent between batches or mid-frame is closed (Stats.IdleTimeouts),
	// and so is one that stops reading its replies (Stats.SlowReaderDrops).
	// Together with the writer's 64 KiB buffer it bounds what a slow reader
	// can pin. 0 means unbounded.
	Timeout time.Duration
}

// Server serves the RESP subset over TCP: one accept loop hands each
// connection to a goroutine that batches pipelined commands into store
// dispatches and flushes replies once per batch. Those are all its
// goroutines; shards run nothing of their own. Close stops it hard;
// Shutdown drains in-flight batches first.
type Server struct {
	cfg   Config
	store *Store
	ln    net.Listener

	mu     sync.Mutex
	open   map[*lifecycleConn]struct{}
	closed bool
	conns  sync.WaitGroup
}

// New builds the store but does not bind yet.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	st, err := NewStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		store: st,
		open:  map[*lifecycleConn]struct{}{},
	}, nil
}

// Store returns the shared sharded store (also the in-process target for
// retwis' local client).
func (s *Server) Store() *Store { return s.store }

// Stats snapshots the resilience counters, which the store keeps.
func (s *Server) Stats() Stats { return s.store.Stats() }

// Listen binds the configured address, or adopts Config.Listener.
func (s *Server) Listen() error {
	if s.cfg.Listener != nil {
		s.ln = s.cfg.Listener
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop on the calling goroutine and blocks until
// Close or Shutdown, then returns ErrServerClosed once every connection is
// done. Listen must have succeeded first.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	// After Close or Shutdown the listener is closed, so this returns at
	// once; a connection accepted meanwhile finds closed set and is dropped.
	s.acceptLoop()
	s.conns.Wait()
	return ErrServerClosed
}

// Close stops the server hard: accepting stops, every open connection is
// closed mid-whatever, the store shuts down. Idempotent and race-free —
// concurrent or repeated Closes (including racing a Shutdown) all return
// nil once the server is down.
func (s *Server) Close() error {
	return s.stop(nil)
}

// Shutdown stops the server gracefully: accepting stops, idle connections
// close immediately, and connections with a pipeline batch in flight
// finish executing it and flush every reply before closing — a client
// never sees EOF in the middle of a reply stream for a batch the server
// accepted. Every batch those connections dispatched completes with them;
// only then does the store close. If ctx expires first the stragglers are
// closed hard and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.stop(ctx)
}

// stop implements Close (ctx == nil: immediate) and Shutdown (drain until
// ctx expires).
func (s *Server) stop(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	open := make([]*lifecycleConn, 0, len(s.open))
	for c := range s.open {
		open = append(open, c)
	}
	s.mu.Unlock()

	if ln != nil {
		// Idempotent across repeated stops; the typed result below is the
		// only error surface.
		ln.Close()
	}
	if ctx == nil {
		for _, c := range open {
			c.Conn.Close()
		}
	} else {
		for _, c := range open {
			c.interrupt()
		}
	}

	drained := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(drained)
	}()
	var err error
	if ctx != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			// Drain window over: close the stragglers hard.
			s.mu.Lock()
			for c := range s.open {
				c.Conn.Close()
			}
			s.mu.Unlock()
			err = fmt.Errorf("%w: drain interrupted: %w", ErrServerClosed, ctx.Err())
			<-drained
		}
	} else {
		<-drained
	}
	// Every connection is done, so every accepted batch has run: the store
	// can close without cutting one off.
	s.store.Close()
	return err
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal error: stop accepting.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.open) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.store.count.rejected.Add(1)
			go rejectMaxClients(c)
			continue
		}
		lc := &lifecycleConn{Conn: c, timeout: s.cfg.Timeout}
		s.open[lc] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		s.store.count.accepted.Add(1)
		s.store.count.active.Add(1)
		go s.handle(lc)
	}
}

// rejectMaxClients answers a connection over the MaxConns cap: the typed
// error reply, then close. Run off the accept loop so a rejected peer that
// never reads cannot stall accepting.
func rejectMaxClients(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	c.Write([]byte("-" + MaxClientsMsg + "\r\n"))
	c.Close()
}

func (s *Server) forget(c *lifecycleConn) {
	s.mu.Lock()
	delete(s.open, c)
	s.mu.Unlock()
	s.store.count.active.Add(-1)
}

// handle runs one connection: read the first command blocking (bounded by
// Timeout), drain whatever complete pipeline follow-up is already buffered
// (up to maxPipeline), execute the batch through the store, write
// the replies in order, flush once. QUIT replies +OK and closes; framing
// errors reply -ERR Protocol error and close, since the stream position is
// gone; deadline expiries and drain interrupts close silently. A panic
// anywhere in the handler is recovered into a typed *wire.ProtocolError
// reply, counted, and closes only this connection. The command storage and
// the execution scratch live as long as the connection and are reused by
// every batch.
func (s *Server) handle(lc *lifecycleConn) {
	defer s.conns.Done()
	defer s.forget(lc)
	defer lc.Conn.Close()

	w := wire.NewWriter(lc)
	defer func() {
		if p := recover(); p != nil {
			s.store.count.panics.Add(1)
			// Best effort: the peer learns the connection died server-side
			// rather than just seeing EOF. The writer may hold a torn
			// frame; the connection is closing either way.
			pe := &wire.ProtocolError{Detail: fmt.Sprintf("internal panic: %v", p)}
			w.WriteReply(wire.Errf("ERR Protocol error: %s", pe.Detail))
			w.Flush()
		}
	}()

	r := wire.NewReader(lc)
	var (
		batch wire.CommandBatch
		sc    scratch
	)

	for {
		if err := batch.Read(r); err != nil {
			s.closeOnReadError(w, err)
			return
		}
		var deferredErr error
		for len(batch.Commands()) < maxPipeline && r.Buffered() > 0 {
			if deferredErr = batch.Read(r); deferredErr != nil {
				break
			}
		}

		// QUIT closes after its reply; later pipelined commands are moot.
		quit := s.store.run(&sc, batch.Commands())
		for i := range sc.plans {
			if err := w.WriteReply(sc.plans[i].reply(sc.units)); err != nil {
				s.closeOnWriteError(err)
				return
			}
		}
		// Every reply is in the writer's buffer or on the wire: nothing
		// points into the scratch or the decoded arguments any more.
		sc.release()
		batch.Reset()
		if quit {
			w.Flush()
			return
		}
		if deferredErr != nil {
			s.closeOnReadError(w, deferredErr)
			return
		}
		if err := w.Flush(); err != nil {
			s.closeOnWriteError(err)
			return
		}
		if lc.drained() {
			// Graceful shutdown: this batch's replies are flushed, stop
			// before reading another.
			return
		}
	}
}

// closeOnReadError classifies the end of a connection's read stream:
// framing violations are answered with the protocol error before closing,
// deadline expiries are counted as idle timeouts, drain interrupts and
// plain disconnects (EOF) close silently.
func (s *Server) closeOnReadError(w *wire.Writer, err error) {
	switch {
	case errors.Is(err, errDrainInterrupt):
		// Graceful shutdown interrupted the wait for the next command.
	case isTimeout(err):
		s.store.count.idleTimeouts.Add(1)
	default:
		var pe *wire.ProtocolError
		if errors.As(err, &pe) {
			s.store.count.protoErrs.Add(1)
			w.WriteReply(wire.Errf("ERR Protocol error: %s", pe.Detail))
			w.Flush()
		}
	}
}

// closeOnWriteError counts a reply stream cut off by the write deadline —
// Timeout disconnecting a client that stopped draining.
func (s *Server) closeOnWriteError(err error) {
	if isTimeout(err) {
		s.store.count.slowDrops.Add(1)
	}
}
