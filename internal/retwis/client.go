package retwis

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/stats"
	"github.com/adjusted-objects/dego/internal/wire"
)

// KV abstracts "somewhere that answers the RESP subset" so the retwis
// client runs identically against the in-process store and a live
// dego-server over TCP. ExecPipe executes one pipeline: every command is
// sent, then every reply is read, in order. The replies are valid until the
// next ExecPipe on the same KV, which may decode into the same memory; a
// caller that keeps one longer copies it. cmds is not retained.
type KV interface {
	ExecPipe(cmds [][][]byte) ([]wire.Reply, error)
	Close() error
}

// LocalKV runs the pipeline directly against an in-process store — the
// zero-wire baseline that isolates protocol+network cost when compared with
// WireKV against the same store.
type LocalKV struct {
	St *server.Store
}

// ExecPipe implements KV. The store's replies are caller-owned, so these
// outlive the contract's "until the next ExecPipe".
func (l *LocalKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	return l.St.ExecBatch(cmds), nil
}

// Close implements KV; the store is owned by the caller and stays open.
func (l *LocalKV) Close() error { return nil }

// WireConfig tunes WireKV's dial, I/O, and self-healing behaviour. The
// zero value means "use the defaults below".
type WireConfig struct {
	// DialTimeout bounds each TCP dial (initial and reconnect); 0 means 5s.
	DialTimeout time.Duration
	// IOTimeout bounds one ExecPipe attempt (write burst through last
	// reply); 0 means 30s. Negative disables the deadline.
	IOTimeout time.Duration
	// MaxRetries is how many times one ExecPipe reconnects and retries
	// after a transport failure before giving up; 0 means 4. Negative
	// disables retrying.
	MaxRetries int
	// Backoff is the first reconnect delay; it doubles per attempt with
	// full jitter, capped at MaxBackoff. 0 means 10ms / 1s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Dialer overrides how each (re)connect reaches the server; nil means
	// net.DialTimeout("tcp", addr, DialTimeout). The fault-injected
	// frontier sweeps plug a faultnet Injector.Dialer in here, so faults
	// ride the client's transport without touching the server under test.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c *WireConfig) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.Backoff == 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = time.Second
	}
}

// WireStats counts one WireKV's self-healing work.
type WireStats struct {
	Retries    uint64 `json:"retries"`    // batches re-executed after a transport failure
	Reconnects uint64 `json:"reconnects"` // successful re-dials
}

// firstUnsafeVerb returns the first verb in the batch that may write
// (server.ReadOnly), upper-cased. A batch is re-executed after a transport
// failure only if it has none: a batch with a write may have been partially
// applied server-side before the connection died, so replaying it could
// double-apply; it surfaces as *NonRetryableError instead and the caller
// decides (retwis' workload replays SETs itself, which are idempotent in
// effect).
func firstUnsafeVerb(cmds [][][]byte) (string, bool) {
	for _, cm := range cmds {
		if len(cm) > 0 && !server.ReadOnly(cm[0]) {
			return strings.ToUpper(string(cm[0])), true
		}
	}
	return "", false
}

// NonRetryableError reports a transport failure on a batch the client must
// not replay: it contains a write, and the server may have applied part of
// the batch before the connection died.
type NonRetryableError struct {
	Verb  string // the verb that makes the batch unsafe to replay
	Cause error
}

func (e *NonRetryableError) Error() string {
	return fmt.Sprintf("retwis: %v (batch contains %s, not retry-safe)", e.Cause, e.Verb)
}

func (e *NonRetryableError) Unwrap() error { return e.Cause }

// WireKV is one TCP connection to a dego-server (or any RESP server
// answering the subset), with a self-healing transport: a failed read-only
// batch reconnects (capped exponential backoff, full jitter) and retries;
// a failed batch containing writes returns *NonRetryableError. One WireKV
// serves one worker goroutine; only Stats is safe to call concurrently.
type WireKV struct {
	addr string
	cfg  WireConfig
	rng  *rand.Rand

	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
	// replies is the storage every ExecPipe decodes into, kept across
	// reconnects and trimmed to the retention bound between calls.
	replies wire.ReplyBatch

	retries    atomic.Uint64
	reconnects atomic.Uint64
}

// DialKV connects to addr with the default WireConfig. The dial is bounded
// by DialTimeout — a dead address fails promptly instead of hanging.
func DialKV(addr string) (*WireKV, error) {
	return DialKVConfig(addr, WireConfig{})
}

// DialKVConfig connects to addr with explicit tuning.
func DialKVConfig(addr string, cfg WireConfig) (*WireKV, error) {
	cfg.fill()
	c := &WireKV{
		addr: addr,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if err := c.redial(); err != nil {
		return nil, err
	}
	// The first dial is a connect, not a recovery.
	c.reconnects.Store(0)
	return c, nil
}

// Stats snapshots the self-healing counters.
func (c *WireKV) Stats() WireStats {
	return WireStats{Retries: c.retries.Load(), Reconnects: c.reconnects.Load()}
}

// redial (re)establishes the connection and fresh codec state.
func (c *WireKV) redial() error {
	dial := c.cfg.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.conn, c.r, c.w = conn, wire.NewReader(conn), wire.NewWriter(conn)
	c.reconnects.Add(1)
	return nil
}

// teardown discards a connection whose stream position is no longer
// trustworthy.
func (c *WireKV) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r, c.w = nil, nil, nil
	}
}

// backoffFor returns the delay before retry attempt (0-based): Backoff
// doubled per attempt, capped at MaxBackoff, with full jitter so a fleet
// of clients does not reconnect in lockstep.
func (c *WireKV) backoffFor(attempt int) time.Duration {
	d := c.cfg.Backoff << uint(attempt)
	if d <= 0 || d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// attempt runs one wire round trip: write burst, one flush, read
// len(cmds) replies into c.replies, all bounded by IOTimeout.
func (c *WireKV) attempt(cmds [][][]byte) ([]wire.Reply, error) {
	if c.cfg.IOTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
	for _, cm := range cmds {
		if err := c.w.WriteCommand(cm...); err != nil {
			return nil, err
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.replies.Read(c.r, len(cmds))
}

// ExecPipe implements KV with self-healing: transport failures on an
// all-read batch reconnect and retry up to MaxRetries times; a batch
// containing writes fails with *NonRetryableError (the connection is torn
// down either way, so the next batch starts on a fresh dial). Error
// replies are data, not transport failures, and never trigger a retry.
// The replies are decoded into storage the next ExecPipe reuses.
func (c *WireKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.conn == nil {
			if err := c.redial(); err != nil {
				lastErr = err
				if attempt >= c.cfg.MaxRetries {
					return nil, fmt.Errorf("retwis: reconnect gave up after %d attempts: %w", attempt, lastErr)
				}
				time.Sleep(c.backoffFor(attempt))
				continue
			}
		}
		reps, err := c.attempt(cmds)
		if err == nil {
			return reps, nil
		}
		c.teardown()
		if verb, unsafe := firstUnsafeVerb(cmds); unsafe {
			return nil, &NonRetryableError{Verb: verb, Cause: err}
		}
		lastErr = err
		if attempt >= c.cfg.MaxRetries {
			return nil, fmt.Errorf("retwis: retry gave up after %d attempts: %w", attempt, lastErr)
		}
		c.retries.Add(1)
		time.Sleep(c.backoffFor(attempt))
	}
}

// Close implements KV.
func (c *WireKV) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Graph is the deterministic initial social graph of §6.3 in adjacency
// form: Followers[u] lists who follows u, deduplicated and capped at
// FanoutLimit (the synchronous-delivery bound). It mirrors the power-law /
// Zipf seeding of Build so the wire workload posts into the same graph
// shape the in-process backends use — and so the client can fan a post out
// WITHOUT first asking the server for the follower set, which would stall
// the pipeline on a round trip.
type Graph struct {
	Users     int
	Followers [][]UserID
}

// BuildGraph draws the graph for p (same draws as Build's edge loop).
func BuildGraph(p Params) *Graph {
	degrees := stats.PowerLawDegrees(p.Users, p.MaxDegree, 2.0, p.Seed)
	pick := stats.NewZipfian(p.Users, p.Alpha, p.Seed+1)
	fol := make([][]UserID, p.Users)
	seen := map[UserID]struct{}{}
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		clear(seen)
		for d := 0; d < degrees[u]; d++ {
			f := UserID(pick.Next())
			if f == uid {
				continue
			}
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			if len(fol[u]) < FanoutLimit {
				fol[u] = append(fol[u], f)
			}
		}
		sort.Slice(fol[u], func(i, j int) bool { return fol[u][i] < fol[u][j] })
	}
	return &Graph{Users: p.Users, Followers: fol}
}

// Key scheme of the wire workload (documented in docs/PROTOCOL.md):
//
//	profile:<u>    string   profile version       SET / GET
//	followers:<u>  set      who follows u         SADD / SREM / SMEMBERS
//	following:<u>  set      whom u follows        SADD / SREM
//	timeline:<u>   list     delivered tweets      LPUSH / LTRIM / LRANGE
//	posts:<u>      zset     u's post log by seq   ZADD / ZREMRANGEBYSCORE
//	community      set      interest group        SADD / SREM
//	stat:posts     string   global post counter   INCR
func userKey(prefix string, u UserID) []byte {
	return strconv.AppendInt(append([]byte(prefix), ':'), int64(u), 10)
}

func uidBytes(u UserID) []byte { return strconv.AppendInt(nil, int64(u), 10) }

// Command words that are the same bytes in every command. They are shared and
// read-only: the pipeline only ever serializes them. userKey, uidBytes, the
// payloads and push's argument slices stay fresh per command on purpose —
// the pipeline buffer is handed to KV.ExecPipe, and the repository
// benchmark's replay keeps those commands after the client has moved on.
var (
	verbSet              = []byte("SET")
	verbGet              = []byte("GET")
	verbIncr             = []byte("INCR")
	verbSAdd             = []byte("SADD")
	verbSRem             = []byte("SREM")
	verbLPush            = []byte("LPUSH")
	verbLTrim            = []byte("LTRIM")
	verbLRange           = []byte("LRANGE")
	verbZAdd             = []byte("ZADD")
	verbZRemRangeByScore = []byte("ZREMRANGEBYSCORE")

	keyStatPosts    = []byte("stat:posts")
	keyCommunity    = []byte("community")
	argZero         = []byte("0")
	argNegInf       = []byte("-inf")
	argTimelineLast = []byte(strconv.Itoa(TimelineSize - 1))
)

// NetClient turns generated Ops into RESP command pipelines against a KV.
// One NetClient serves one worker; it is not goroutine-safe.
type NetClient struct {
	kv    KV
	graph *Graph
	buf   [][][]byte
}

// NewNetClient wraps kv. graph drives client-side post fanout.
func NewNetClient(kv KV, graph *Graph) *NetClient {
	return &NetClient{kv: kv, graph: graph}
}

func (c *NetClient) push(args ...[]byte) { c.buf = append(c.buf, args) }

// AppendOp expands op into its commands on the pending pipeline.
func (c *NetClient) AppendOp(op Op) {
	switch op.Kind {
	case OpAddUser:
		c.push(verbSet, userKey("profile", op.User), argZero)
	case OpFollow:
		u, t := uidBytes(op.User), uidBytes(op.Target)
		// Follow both directions, then the converse (§6.3): not measured
		// separately, but part of the op's cost exactly as in-process.
		c.push(verbSAdd, userKey("following", op.User), t)
		c.push(verbSAdd, userKey("followers", op.Target), u)
		c.push(verbSRem, userKey("following", op.User), t)
		c.push(verbSRem, userKey("followers", op.Target), u)
	case OpPost:
		seq := strconv.AppendInt(nil, op.Seq, 10)
		payload := append(append(uidBytes(op.User), ':'), seq...)
		c.push(verbIncr, keyStatPosts)
		c.push(verbZAdd, userKey("posts", op.User), seq, payload)
		if op.Seq > int64(TimelineSize) {
			// Prune the post log to the sliding window a timeline can show.
			old := strconv.AppendInt(nil, op.Seq-int64(TimelineSize), 10)
			c.push(verbZRemRangeByScore, userKey("posts", op.User), argNegInf, old)
		}
		var fol []UserID
		if int(op.User) < len(c.graph.Followers) {
			fol = c.graph.Followers[op.User]
		}
		for _, f := range fol {
			c.push(verbLPush, userKey("timeline", f), payload)
			c.push(verbLTrim, userKey("timeline", f), argZero, argTimelineLast)
		}
	case OpTimeline:
		c.push(verbGet, userKey("profile", op.User))
		c.push(verbLRange, userKey("timeline", op.User), argZero, argTimelineLast)
	case OpJoinGroup:
		c.push(verbSAdd, keyCommunity, uidBytes(op.User))
	case OpLeaveGroup:
		c.push(verbSRem, keyCommunity, uidBytes(op.User))
	case OpUpdateProfile:
		c.push(verbSet, userKey("profile", op.User), strconv.AppendInt(nil, op.Seq, 10))
	}
}

// Pending returns how many commands the pipeline holds.
func (c *NetClient) Pending() int { return len(c.buf) }

// Flush executes the pending pipeline and checks every reply; the first
// error reply is returned as a *ReplyError. The buffer is reset either way.
func (c *NetClient) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	reps, err := c.kv.ExecPipe(c.buf)
	c.buf = c.buf[:0]
	if err != nil {
		return err
	}
	for _, rep := range reps {
		if rep.IsError() {
			return &ReplyError{Message: rep.Text()}
		}
	}
	return nil
}

// Close closes the underlying KV.
func (c *NetClient) Close() error { return c.kv.Close() }

// ReplyError is an error reply the server returned for a workload command —
// a workload/mapping bug, not a transport failure.
type ReplyError struct{ Message string }

func (e *ReplyError) Error() string { return "retwis: server replied " + e.Message }

// SeedKV loads the initial state for p into kv: one profile per user plus
// the follower/following edges of graph, pipelined in chunks. It is the
// wire-side counterpart of Build's seeding phase.
func SeedKV(kv KV, p Params, graph *Graph) error {
	const chunk = 512
	var buf [][][]byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		reps, err := kv.ExecPipe(buf)
		buf = buf[:0]
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if rep.IsError() {
				return &ReplyError{Message: rep.Text()}
			}
		}
		return nil
	}
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		buf = append(buf, [][]byte{verbSet, userKey("profile", uid), argZero})
		for _, f := range graph.Followers[u] {
			buf = append(buf,
				[][]byte{verbSAdd, userKey("followers", uid), uidBytes(f)},
				[][]byte{verbSAdd, userKey("following", f), uidBytes(uid)})
		}
		if len(buf) >= chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
