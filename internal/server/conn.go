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

// lifecycleConn wraps an accepted connection with Config.Timeout: each read
// and each write toward the client is bounded by it, so a silent peer, a
// torn frame and a client that stops reading all release the connection.
// Shutdown interrupts a blocked read via interrupt, which the handler
// distinguishes from real timeouts.
//
// The read path (Read, interrupt) is guarded by mu so a read arming its
// deadline cannot overwrite the expired one a drain interrupt set; the
// write path has a single writer goroutine and needs no lock.
type lifecycleConn struct {
	net.Conn
	timeout time.Duration // bound on each read and write; 0 = unbounded

	mu       sync.Mutex
	draining bool
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

// Read implements net.Conn with the read deadline.
func (c *lifecycleConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return 0, errDrainInterrupt
	}
	if c.timeout > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
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
	if c.timeout > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return c.Conn.Write(p)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
