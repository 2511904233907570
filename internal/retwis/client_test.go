package retwis

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/wire"
)

// encodePipeline is the RESP encoding of cmds, as a WireKV sends them.
func encodePipeline(t testing.TB, cmds [][][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for _, cm := range cmds {
		if err := w.WriteCommand(cm...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// keepKV keeps every pipeline it is given by its outer slice only, as the
// repository benchmark's stage replay keeps a flush's commands, and records
// the pipeline's encoding at the time it was flushed.
type keepKV struct {
	t    testing.TB
	kept [][][][]byte
	sent [][]byte
}

func (k *keepKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	k.kept = append(k.kept, append([][][]byte(nil), cmds...))
	k.sent = append(k.sent, encodePipeline(k.t, cmds))
	return make([]wire.Reply, len(cmds)), nil
}

func (k *keepKV) Close() error { return nil }

// check fails unless every kept pipeline still encodes as it did when it
// was flushed.
func (k *keepKV) check(t *testing.T, name string) {
	t.Helper()
	if len(k.kept) < 3 {
		t.Fatalf("%s: %d flushes kept, want at least 3", name, len(k.kept))
	}
	for i, cmds := range k.kept {
		if got := encodePipeline(t, cmds); !bytes.Equal(got, k.sent[i]) {
			t.Fatalf("%s: flush %d of %d changed after it was flushed:\n got %.120q\nwant %.120q", name, i, len(k.kept), got, k.sent[i])
		}
	}
}

// A KV that is neither a WireKV nor a LocalKV may keep the commands it is
// given: every flush it kept must read as it did, however many chunks the
// client has filled since. Two clients flush in turn, and SeedKV seeds
// through a third.
func TestForeignKVKeepsEveryFlush(t *testing.T) {
	p := testParams(256, 1)
	graph := BuildGraph(p)
	seed := &keepKV{t: t}
	if err := SeedKV(seed, p, graph); err != nil {
		t.Fatal(err)
	}
	seed.check(t, "SeedKV")
	kvs := []*keepKV{{t: t}, {t: t}}
	cls := []*NetClient{NewNetClient(kvs[0], graph), NewNetClient(kvs[1], graph)}
	ops := DrawOps(p, 16*400)
	for i := 0; len(ops) > 0; i++ {
		cl := cls[i%len(cls)]
		for _, op := range ops[:16] {
			cl.AppendOp(op)
		}
		ops = ops[16:]
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i, kv := range kvs {
		kv.check(t, fmt.Sprintf("client %d", i))
	}
}

// growKV appends to every argument list and every argument of the pipeline
// it is given, then checks that the pipeline still encodes as it did.
type growKV struct {
	t       *testing.T
	appends int
}

func (k *growKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	before := encodePipeline(k.t, cmds)
	for _, cm := range cmds {
		_ = append(cm, []byte("GROWN"))
		for _, arg := range cm {
			_ = append(arg, "GROWN-GROWN-GROWN"...)
			k.appends++
		}
	}
	if after := encodePipeline(k.t, cmds); !bytes.Equal(after, before) {
		k.t.Fatalf("appending to a command's arguments changed the pipeline:\n got %.120q\nwant %.120q", after, before)
	}
	return make([]wire.Reply, len(cmds)), nil
}

func (k *growKV) Close() error { return nil }

// Every argument and argument list a command receives is a window capped at
// its end: a consumer that appends to one cannot overwrite the next.
func TestCommandArgumentsAreCappedWindows(t *testing.T) {
	p := testParams(256, 1)
	graph := BuildGraph(p)
	kv := &growKV{t: t}
	if err := SeedKV(kv, p, graph); err != nil {
		t.Fatal(err)
	}
	cl := NewNetClient(kv, graph)
	for _, op := range DrawOps(p, 16*64) {
		cl.AppendOp(op)
		if cl.Pending() >= 64 {
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if kv.appends == 0 {
		t.Fatal("no argument was appended to")
	}
}

// failConn fails every write.
type failConn struct{ net.Conn }

func (failConn) Write([]byte) (int, error) { return 0, errors.New("connection reset") }
func (failConn) Close() error              { return nil }

// A Flush whose KV fails resets the pipeline as a successful one does: the
// chunks restart at zero, and the next Flush sends only its own commands.
func TestFailedFlushResetsThePipeline(t *testing.T) {
	p := testParams(256, 1)
	graph := BuildGraph(p)
	ops := DrawOps(p, 16)
	dials := 0
	kv, err := DialKVConfig("canned", WireConfig{
		IOTimeout: -1,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			if dials++; dials == 1 {
				return failConn{}, nil
			}
			return newCannedConn(t, graph, ops), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewNetClient(kv, graph)
	cl.AppendOp(Op{Kind: OpAddUser, User: 7})
	var nr *NonRetryableError
	if err := cl.Flush(); !errors.As(err, &nr) {
		t.Fatalf("Flush over a failing connection = %v, want a *NonRetryableError", err)
	}
	if cl.Pending() != 0 || len(cl.bytes) != 0 || len(cl.args) != 0 {
		t.Fatalf("after a failed Flush: %d commands pending, chunks at %d bytes and %d arguments; want all 0",
			cl.Pending(), len(cl.bytes), len(cl.args))
	}
	for _, op := range ops {
		cl.AppendOp(op)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("Flush after the failed one: %v", err)
	}
}
