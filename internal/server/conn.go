package server

import (
	"errors"
	"net"
	"sync"
	"time"
)

// errDrainInterrupt marks a read interrupted by graceful shutdown: the
// handler closes cleanly, it is not a peer failure.
var errDrainInterrupt = errors.New("server: read interrupted by shutdown")

// aLongTimeAgo is a deadline certain to be expired, used to wake reads.
var aLongTimeAgo = time.Unix(1, 0)

// lifecycleConn wraps an accepted connection with the deadline discipline
// of Config:
//
//   - while the handler waits between pipeline batches, the next read is
//     bounded by IdleTimeout;
//   - once a command has started arriving, each read is bounded by
//     ReadTimeout, so a torn frame cannot hold the connection open;
//   - each write toward the client is bounded by WriteTimeout;
//   - Shutdown interrupts a blocked idle read via interrupt, which the
//     handler distinguishes from real timeouts.
//
// The read path (Read, beginIdle, interrupt) is guarded by mu so a drain
// interrupt cannot race a handler arming its next deadline; the write path
// has a single writer goroutine and needs no lock.
type lifecycleConn struct {
	net.Conn
	idle  time.Duration // idle wait between batches; 0 = unbounded
	read  time.Duration // per-read bound mid-command; 0 = unbounded
	write time.Duration // per-write bound; 0 = unbounded

	mu        sync.Mutex
	idlePhase bool
	draining  bool
	armed     bool // a read deadline is currently set
}

func newLifecycleConn(c net.Conn, cfg Config) *lifecycleConn {
	return &lifecycleConn{
		Conn:  c,
		idle:  cfg.IdleTimeout,
		read:  cfg.ReadTimeout,
		write: cfg.WriteTimeout,
	}
}

// beginIdle marks the next Read as an idle wait (the first byte of a new
// pipeline batch), bounded by IdleTimeout rather than ReadTimeout.
func (c *lifecycleConn) beginIdle() {
	c.mu.Lock()
	c.idlePhase = true
	c.mu.Unlock()
}

// interrupt wakes a blocked read for graceful shutdown. The connection's
// reads fail from here on; writes are untouched so an in-flight batch can
// still deliver its replies.
func (c *lifecycleConn) interrupt() {
	c.mu.Lock()
	c.draining = true
	c.Conn.SetReadDeadline(aLongTimeAgo)
	c.mu.Unlock()
}

// drained reports whether shutdown has interrupted this connection.
func (c *lifecycleConn) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Read implements net.Conn with the idle/read deadline discipline.
func (c *lifecycleConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return 0, errDrainInterrupt
	}
	d := c.read
	if c.idlePhase {
		d = c.idle
		c.idlePhase = false
	}
	switch {
	case d > 0:
		c.Conn.SetReadDeadline(time.Now().Add(d))
		c.armed = true
	case c.armed:
		c.Conn.SetReadDeadline(time.Time{})
		c.armed = false
	}
	c.mu.Unlock()

	n, err := c.Conn.Read(p)
	if err != nil {
		c.mu.Lock()
		if c.draining {
			err = errDrainInterrupt
		}
		c.mu.Unlock()
	}
	return n, err
}

// Write implements net.Conn with the slow-reader write bound.
func (c *lifecycleConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.write))
	}
	return c.Conn.Write(p)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
