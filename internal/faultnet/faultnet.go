// Package faultnet interposes deterministic network faults between a RESP
// client and dego-server: latency spikes, fragmented (partial) writes,
// stalled reads, and abrupt mid-stream connection resets, all drawn from a
// seeded schedule so a failing chaos run can be replayed. It is the test
// harness behind the resilience claims in ARCHITECTURE.md's "Resilience"
// section — the serving layer is only believed to survive a hostile
// network because the chaos suite (internal/chaos) drives it through this
// package under the race detector.
//
// An Injector owns one fault configuration plus the shared counters; it
// wraps individual connections (Wrap) or a whole listener (WrapListener,
// which wraps every accepted connection). Each wrapped connection draws
// its faults from its own rand stream, seeded by Config.Seed and the
// connection's accept index, so the per-connection schedule does not
// depend on goroutine interleaving. Quiesce turns all injection off —
// existing and future connections — which is how a chaos test ends the
// storm and lets clients converge before asserting final state.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config is one fault schedule. Probabilities are per I/O operation
// (per Read or per Write call); zero disables that fault. Durations are
// uniform draws in (0, Max].
type Config struct {
	// Seed roots every connection's rand stream; connection i draws from
	// seed Seed^(i*prime), so runs with the same Seed and accept order
	// inject the same faults.
	Seed int64

	// LatencyProb delays a Write by up to LatencyMax.
	LatencyProb float64
	LatencyMax  time.Duration

	// PartialWriteProb fragments a Write: a random prefix goes out first,
	// then (after a beat) the rest — the peer's reader sees a torn frame
	// mid-parse and must resume correctly.
	PartialWriteProb float64

	// StallProb holds a Read for up to StallMax before any bytes arrive.
	StallProb float64
	StallMax  time.Duration

	// Scripted stall: on each wrapped connection, the reads numbered
	// [StallAfter, StallAfter+StallCount) (0-based, counting Read calls)
	// block for exactly StallFor before touching the underlying stream.
	// Unlike the probabilistic faults this is surgical and deterministic —
	// it is how the coordinated-omission tests inject a known server
	// hiccup at a known point in a run. Zero StallCount disables it.
	StallAfter int
	StallCount int
	StallFor   time.Duration

	// ResetProb aborts the connection mid-stream: pending I/O fails, the
	// socket is closed (with SO_LINGER 0 where the transport allows it, so
	// the peer sees an RST rather than a clean FIN).
	ResetProb float64
}

// Stats counts the faults an Injector has delivered.
type Stats struct {
	Conns         uint64 `json:"conns"`          // connections wrapped
	Latencies     uint64 `json:"latencies"`      // delayed writes
	PartialWrites uint64 `json:"partial_writes"` // fragmented writes
	Stalls        uint64 `json:"stalls"`         // stalled reads
	Resets        uint64 `json:"resets"`         // injected resets
}

// Total returns the number of individual faults injected (Conns excluded).
func (s Stats) Total() uint64 {
	return s.Latencies + s.PartialWrites + s.Stalls + s.Resets
}

// ResetError is the error a local I/O call returns when the injector
// resets the connection under it.
type ResetError struct{}

func (*ResetError) Error() string { return "faultnet: injected connection reset" }

// Timeout and Temporary make ResetError a net.Error that is neither — a
// reset is a hard failure, exactly like a real RST.
func (*ResetError) Timeout() bool   { return false }
func (*ResetError) Temporary() bool { return false }

// Injector owns one fault schedule and its counters.
type Injector struct {
	cfg   Config
	next  atomic.Uint64
	quiet atomic.Bool

	conns, latencies, partials, stalls, resets atomic.Uint64
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Quiesce turns off all fault injection, on existing connections too. It
// cannot be undone: the storm is over.
func (in *Injector) Quiesce() { in.quiet.Store(true) }

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Conns:         in.conns.Load(),
		Latencies:     in.latencies.Load(),
		PartialWrites: in.partials.Load(),
		Stalls:        in.stalls.Load(),
		Resets:        in.resets.Load(),
	}
}

// Wrap interposes the injector's schedule on c. Each wrapped connection
// gets its own deterministic rand stream.
func (in *Injector) Wrap(c net.Conn) *Conn {
	idx := in.next.Add(1)
	in.conns.Add(1)
	// SplitMix64-style spread so nearby indices land far apart in seed space.
	seed := in.cfg.Seed ^ int64(idx*0x9E3779B97F4A7C15)
	return &Conn{
		Conn: c,
		in:   in,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Listener wraps every accepted connection with an Injector's schedule.
type Listener struct {
	net.Listener
	in *Injector
}

// WrapListener returns ln with in's faults interposed on every accept.
func WrapListener(ln net.Listener, in *Injector) *Listener {
	return &Listener{Listener: ln, in: in}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// Injector returns the listener's injector (for Stats/Quiesce).
func (l *Listener) Injector() *Injector { return l.in }

// Dialer returns a dial function that wraps every established connection
// with in's fault schedule — the client-side counterpart of WrapListener.
// Its signature matches the retwis wire client's dial hook, so a
// retwis-bench -net sweep can run through a hostile network without
// touching the server under test.
func (in *Injector) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.Wrap(c), nil
	}
}

// Conn is one fault-injected connection. Deadline and address methods pass
// through to the wrapped net.Conn, so server-side read/write deadlines
// still apply underneath the injected faults.
type Conn struct {
	net.Conn
	in *Injector

	mu      sync.Mutex
	rng     *rand.Rand
	isReset bool
	reads   int // Read calls seen, for the scripted stall window
}

// scriptedStall reports whether this Read call falls in the configured
// deterministic stall window.
func (c *Conn) scriptedStall() bool {
	if c.in.cfg.StallCount <= 0 || c.in.quiet.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reads
	c.reads++
	if n >= c.in.cfg.StallAfter && n < c.in.cfg.StallAfter+c.in.cfg.StallCount {
		c.in.stalls.Add(1)
		return true
	}
	return false
}

// fault draws this operation's faults: an optional delay, and whether the
// connection resets now. prob/max are the delay parameters for this
// direction (stall for reads, latency for writes).
func (c *Conn) fault(prob float64, max time.Duration, delayed *atomic.Uint64) (delay time.Duration, reset bool) {
	if c.in.quiet.Load() {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isReset {
		return 0, true
	}
	if c.in.cfg.ResetProb > 0 && c.rng.Float64() < c.in.cfg.ResetProb {
		c.isReset = true
		c.in.resets.Add(1)
		return 0, true
	}
	if prob > 0 && max > 0 && c.rng.Float64() < prob {
		delayed.Add(1)
		delay = time.Duration(c.rng.Int63n(int64(max))) + 1
	}
	return delay, false
}

// fragment decides whether (and where) to tear this write.
func (c *Conn) fragment(n int) (at int, ok bool) {
	if c.in.quiet.Load() || n < 2 || c.in.cfg.PartialWriteProb <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.in.cfg.PartialWriteProb {
		return 0, false
	}
	c.in.partials.Add(1)
	return 1 + c.rng.Intn(n-1), true
}

// abort hard-closes the connection. On TCP the linger is zeroed first so
// the peer sees an RST, the harshest honest failure a network can deliver.
func (c *Conn) abort() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
	return &ResetError{}
}

// Read implements net.Conn: an optional stall (probabilistic or scripted),
// then the underlying read — or an injected reset.
func (c *Conn) Read(p []byte) (int, error) {
	if c.scriptedStall() {
		time.Sleep(c.in.cfg.StallFor)
	}
	delay, reset := c.fault(c.in.cfg.StallProb, c.in.cfg.StallMax, &c.in.stalls)
	if reset {
		return 0, c.abort()
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn: optional latency, optional fragmentation,
// or an injected reset. A fragmented write still delivers every byte
// (unless a reset fires between the fragments), so from the caller's view
// it only reorders timing — exactly what a congested network does.
func (c *Conn) Write(p []byte) (int, error) {
	delay, reset := c.fault(c.in.cfg.LatencyProb, c.in.cfg.LatencyMax, &c.in.latencies)
	if reset {
		return 0, c.abort()
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if at, ok := c.fragment(len(p)); ok {
		n, err := c.Conn.Write(p[:at])
		if err != nil {
			return n, err
		}
		// A beat between the fragments so the peer's reader actually
		// observes the torn frame rather than coalescing it.
		time.Sleep(200 * time.Microsecond)
		m, err := c.Conn.Write(p[at:])
		return n + m, err
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	wasReset := c.isReset
	c.mu.Unlock()
	if wasReset && errors.Is(err, net.ErrClosed) {
		// The injector already closed the socket; the wrapper's own Close
		// is then a success, not an error.
		return nil
	}
	return err
}
