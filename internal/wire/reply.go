package wire

import (
	"fmt"
	"strings"
)

// Kind discriminates the RESP reply types of the subset.
type Kind uint8

// Reply kinds, one per RESP2 type byte (KindNull covers both the null bulk
// string $-1 and the null array *-1).
const (
	KindSimple Kind = iota + 1 // +OK
	KindError                  // -ERR ...
	KindInt                    // :42
	KindBulk                   // $3\r\nfoo
	KindNull                   // $-1 / *-1
	KindArray                  // *2 ...
)

// Reply is one decoded server→client frame. The server's shard executors
// build Reply values and Writer.WriteReply serializes them; a client gets
// the same shape back from Reader.ReadReply, so tests can compare the two
// ends structurally.
type Reply struct {
	Kind  Kind
	Int   int64   // KindInt
	Bulk  []byte  // KindSimple (text), KindError (message), KindBulk (payload)
	Elems []Reply // KindArray
}

// Simple returns a simple-string reply (+s).
func Simple(s string) Reply { return Reply{Kind: KindSimple, Bulk: []byte(s)} }

// okText is shared by every OK reply and never written: the Writer only
// reads a reply's bytes, and a decode destination is never a built reply.
var okText = []byte("OK")

// OK is the canonical +OK reply. It does not allocate.
func OK() Reply { return Reply{Kind: KindSimple, Bulk: okText} }

// Err returns an error reply (-msg).
func Err(msg string) Reply { return Reply{Kind: KindError, Bulk: []byte(msg)} }

// Errf returns a formatted error reply.
func Errf(format string, args ...any) Reply { return Err(fmt.Sprintf(format, args...)) }

// Int64 returns an integer reply (:n).
func Int64(n int64) Reply { return Reply{Kind: KindInt, Int: n} }

// Bulk returns a bulk-string reply owning b.
func Bulk(b []byte) Reply { return Reply{Kind: KindBulk, Bulk: b} }

// BulkString returns a bulk-string reply of s.
func BulkString(s string) Reply { return Reply{Kind: KindBulk, Bulk: []byte(s)} }

// Null returns the null reply ($-1).
func Null() Reply { return Reply{Kind: KindNull} }

// Array returns an array reply of elems.
func Array(elems ...Reply) Reply { return Reply{Kind: KindArray, Elems: elems} }

// IsError reports whether the reply is an error reply.
func (r Reply) IsError() bool { return r.Kind == KindError }

// Text returns the reply's textual payload: the simple string, error
// message or bulk payload. Other kinds return "".
func (r Reply) Text() string { return string(r.Bulk) }

// String renders the reply in redis-cli style, for logs and examples.
func (r Reply) String() string {
	switch r.Kind {
	case KindSimple:
		return string(r.Bulk)
	case KindError:
		return "(error) " + string(r.Bulk)
	case KindInt:
		return fmt.Sprintf("(integer) %d", r.Int)
	case KindBulk:
		return fmt.Sprintf("%q", r.Bulk)
	case KindNull:
		return "(nil)"
	case KindArray:
		parts := make([]string, len(r.Elems))
		for i, e := range r.Elems {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return fmt.Sprintf("(invalid reply kind %d)", r.Kind)
	}
}
