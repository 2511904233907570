package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// AcceptLoops is the number of concurrent accept goroutines; 0 means
	// one per shard.
	AcceptLoops int
	// MaxPipeline caps how many pipelined commands one batch executes
	// before replies are flushed; 0 means 256.
	MaxPipeline int
	// MaxConns caps concurrently served connections; one over the cap is
	// answered -ERR max clients reached (MaxClientsMsg) and closed.
	// 0 means unlimited.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between pipeline
	// batches before the server closes it; 0 means forever.
	IdleTimeout time.Duration
	// ReadTimeout bounds each read once a command has started arriving, so
	// a torn frame cannot hold the connection (and its memory) hostage;
	// 0 means unbounded.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of reply bytes toward the client;
	// 0 means unbounded. How patiently it is applied is SlowReader's call.
	WriteTimeout time.Duration
	// SlowReader picks the policy when reply writes block on a client that
	// stopped reading: block up to WriteTimeout (default) or disconnect
	// after a short grace.
	SlowReader SlowReaderPolicy
	// OutBuf caps the reply bytes buffered per connection before they are
	// forced onto the wire (the write buffer size); 0 means 64 KiB.
	// Together with WriteTimeout it bounds what a slow reader can pin.
	OutBuf int
}

// Stats is a snapshot of the server's resilience counters; see
// ARCHITECTURE.md's "Resilience" section for the invariants they witness.
type Stats struct {
	Accepted        uint64 // connections accepted and served
	Rejected        uint64 // connections refused at the MaxConns cap
	Active          int64  // connections being served right now
	IdleTimeouts    uint64 // connections closed by the idle/read deadline
	SlowReaderDrops uint64 // connections dropped writing to a slow reader
	ProtocolErrors  uint64 // framing violations answered and closed
	Panics          uint64 // panics recovered (connection handlers + shard executions)
}

// Server serves the RESP subset over TCP: accept loops hand each
// connection to a goroutine that batches pipelined commands into store
// dispatches and flushes replies once per batch. Close stops it hard;
// Shutdown drains in-flight batches first.
type Server struct {
	cfg   Config
	store *Store
	ln    net.Listener

	mu      sync.Mutex
	open    map[*lifecycleConn]struct{}
	closed  bool
	conns   sync.WaitGroup
	accepts sync.WaitGroup

	accepted, rejected, idleTimeouts, slowDrops, protoErrs, panics atomic.Uint64
	active                                                         atomic.Int64
}

// New builds the store (starting the shard loops) but does not bind yet.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxPipeline <= 0 {
		cfg.MaxPipeline = 256
	}
	st, err := NewStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	if cfg.AcceptLoops <= 0 {
		cfg.AcceptLoops = st.Shards()
	}
	srv := &Server{
		cfg:   cfg,
		store: st,
		open:  map[*lifecycleConn]struct{}{},
	}
	// INFO carries the serving layer's counters alongside the store's.
	st.SetStatsSource(srv.Stats)
	return srv, nil
}

// Store returns the shared sharded store (also the in-process target for
// retwis' local client).
func (s *Server) Store() *Store { return s.store }

// Stats snapshots the resilience counters. Panics sums connection-handler
// recoveries and shard-execution recoveries.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:        s.accepted.Load(),
		Rejected:        s.rejected.Load(),
		Active:          s.active.Load(),
		IdleTimeouts:    s.idleTimeouts.Load(),
		SlowReaderDrops: s.slowDrops.Load(),
		ProtocolErrors:  s.protoErrs.Load(),
		Panics:          s.panics.Load() + s.store.PanicCount(),
	}
}

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

// Serve runs the accept loops and blocks until Close or Shutdown, then
// returns ErrServerClosed. Listen must have succeeded first.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	// Add under mu, after checking closed: stop sets closed under mu before
	// it waits on accepts, so no Add can race that Wait.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.accepts.Add(s.cfg.AcceptLoops)
	s.mu.Unlock()
	for i := 0; i < s.cfg.AcceptLoops; i++ {
		go func() {
			defer s.accepts.Done()
			s.acceptLoop()
		}()
	}
	s.accepts.Wait()
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
// accepted. Every batch those connections dispatched, inline or through a
// shard mailbox, completes with them; only then does the store close. If
// ctx expires first the stragglers are closed hard and ctx's error is
// returned.
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
	s.accepts.Wait()

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
			// Listener closed (shutdown) or fatal error: stop this loop.
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
			s.rejected.Add(1)
			go rejectMaxClients(c)
			continue
		}
		lc := newLifecycleConn(c, s.cfg)
		s.open[lc] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
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
	s.active.Add(-1)
}

// cmdSlots is a connection's recycled command storage: command i of a batch
// is decoded into the header and argument buffers command i of the previous
// batch used, so a client that keeps sending the same shapes costs the
// decoder no allocation. The arguments belong to the handler until the
// batch's replies are written; whoever keeps one longer (the shard, for SET
// and LPUSH operands) clones it.
type cmdSlots struct {
	cmds     [][][]byte // this batch; cmds[len:cap] is storage earlier batches left
	retained int        // bytes of storage carried into this batch, at most wire.RetainTotal
	// extra[i] is what slot i retained beyond its own header after the
	// reset that last walked it; len(extra) is cap(cmds) then.
	extra []int
}

// slotHeader is what wire.TrimCommands counts for a slot's own header.
const slotHeader = int(unsafe.Sizeof([][]byte(nil)))

// read decodes the next command of the batch.
func (s *cmdSlots) read(r *wire.Reader) error {
	var dst [][]byte
	if n := len(s.cmds); n < cap(s.cmds) {
		dst = s.cmds[:n+1][n]
	}
	cmd, err := r.ReadCommandInto(dst)
	if err == nil {
		s.cmds = append(s.cmds, cmd)
	}
	return err
}

// reset ends the batch and trims what is carried over to the retention
// bound, so one oversized frame is not pinned for the life of the connection.
// It leaves the slots exactly as wire.TrimCommands(s.cmds) would, but walks
// only the slots this batch decoded into, so a one-command batch costs one
// slot, not every slot a deep pipeline once opened. The rest are already
// within the bound: only a decode writes a slot, and the reset that last
// walked each one dropped its oversized buffers and counted what it kept.
// (A failed decode may have written the slot after the batch's last, but
// a failed decode also ends the connection.)
func (s *cmdSlots) reset() {
	all := s.cmds[:cap(s.cmds)]
	if grown := len(all) - len(s.extra); grown > 0 {
		// Slots the array gained since the last reset: a header each.
		s.retained += grown * slotHeader
		s.extra = append(s.extra, make([]int, grown)...)
	}
	s.walk(len(s.cmds))
	if s.retained > wire.RetainTotal {
		// Over the bound: cut where TrimCommands cuts, and count what it kept.
		s.cmds, _ = wire.TrimCommands(s.cmds)
		s.retained, s.extra = cap(s.cmds)*slotHeader, make([]int, cap(s.cmds))
		s.walk(cap(s.cmds))
		return
	}
	s.cmds = all[:0]
}

// walk trims slots [0, n) and brings their counts up to date.
func (s *cmdSlots) walk(n int) {
	all := s.cmds[:cap(s.cmds)]
	for i := range n {
		kept, b := wire.TrimCommands(all[i : i+1 : i+1])
		if cap(kept) == 0 {
			b = slotHeader + wire.RetainTotal // over the bound on its own
		}
		s.retained += b - slotHeader - s.extra[i]
		s.extra[i] = b - slotHeader
	}
}

// handle runs one connection: read the first command blocking (bounded by
// IdleTimeout), drain whatever complete pipeline follow-up is already
// buffered (up to MaxPipeline), execute the batch through the store, write
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

	w := wire.NewWriterSize(lc, s.cfg.OutBuf)
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
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
		slots cmdSlots
		sc    scratch
	)

	for {
		lc.beginIdle()
		if err := slots.read(r); err != nil {
			s.closeOnReadError(w, err)
			return
		}
		var deferredErr error
		for len(slots.cmds) < s.cfg.MaxPipeline && r.Buffered() > 0 {
			if deferredErr = slots.read(r); deferredErr != nil {
				break
			}
		}

		// QUIT closes after its reply; later pipelined commands are moot.
		cmds, quit := slots.cmds, false
		for i, cm := range cmds {
			if len(cm) > 0 && strings.EqualFold(string(cm[0]), "QUIT") {
				cmds, quit = cmds[:i+1], true
				break
			}
		}

		s.store.run(&sc, cmds)
		for i := range sc.plans {
			if err := w.WriteReply(sc.plans[i].reply(sc.units)); err != nil {
				s.closeOnWriteError(err)
				return
			}
		}
		// Every reply is in the writer's buffer or on the wire: nothing
		// points into the scratch or the decoded arguments any more.
		sc.release()
		slots.reset()
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
		s.idleTimeouts.Add(1)
	default:
		var pe *wire.ProtocolError
		if errors.As(err, &pe) {
			s.protoErrs.Add(1)
			w.WriteReply(wire.Errf("ERR Protocol error: %s", pe.Detail))
			w.Flush()
		}
	}
}

// closeOnWriteError counts a reply stream cut off by the write deadline —
// the slow-reader policy disconnecting a client that stopped draining.
func (s *Server) closeOnWriteError(err error) {
	if isTimeout(err) {
		s.slowDrops.Add(1)
	}
}
