//go:build !race

package retwis

import (
	"net"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/alloctest"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/wire"
)

// TestAddUserAllocCeiling pins what the per-user writes cost on the DEGO
// row, in allocations and bytes per call. AddUser is 5 % of the Table-2 mix
// but allocates most of the mix's bytes: a fresh key in each of four
// segmented tables (its node, a sixteenth of a 512 B slab of the owner's
// nodes; the three tables whose values are pointers store them in the
// node's cell as they are), two empty follower sets, a timeline queue
// whose facade fills its representation (one 80 B object), and the
// profile's box, the one value that is not a pointer. UpdateProfile replaces
// that value, which costs the box alone. The NetClient rows are the wire client's side of an
// op: 16 drawn ops expanded into their commands and flushed. Flushed to a KV
// of another kind than WireKV and LocalKV (one that answers for nothing),
// which may keep the commands, the client cuts them from chunks it never
// rewrites, so the chunks' bytes are the ops' cost: 0.003 allocations and
// 198 B per op. Flushed through a WireKV, the chunks restart at zero and
// the replies decode into recycled storage: nothing at all. Drawing an op
// (Generator.Next, a lib_table2 worker's stream) allocates nothing either.
// A change may lower a number here, never raise one.
// (The race detector allocates on its own, hence the build tag.)
func TestAddUserAllocCeiling(t *testing.T) {
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	p := testParams(256, 1)
	b, _ := Build(KindDEGO, p, reg)
	u := UserID(p.Users)
	version := int64(0)
	const batch = 16
	ops := DrawOps(p, batch*(64+1000))
	graph := BuildGraph(p)
	cl := NewNetClient(&nopKV{}, graph)
	first := DrawOps(p, batch)
	conn := newCannedConn(t, graph, first)
	kv, err := DialKVConfig("canned", WireConfig{
		IOTimeout: -1,
		Dialer:    func(string, time.Duration) (net.Conn, error) { return conn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	wcl := NewNetClient(kv, graph)
	lp := libShape()
	gen := NewGenerator(0, lp, partitions(lp)[0], false)
	for _, row := range []struct {
		name                  string
		ceilAllocs, ceilBytes float64
		f                     func()
	}{
		{"AddUser", 4.248, 246.976, func() { b.AddUser(h, u); u++ }},
		{"UpdateProfile", 1, 8, func() { version++; b.UpdateProfile(h, 0, version) }},
		{"NetClient batch of 16 ops", 0.054, 3173.12, func() {
			for _, op := range ops[:batch] {
				cl.AppendOp(op)
			}
			ops = ops[batch:]
			cl.Flush()
		}},
		{"NetClient batch of 16 ops through a WireKV", 0, 0, func() {
			for _, op := range first {
				wcl.AppendOp(op)
			}
			if err := wcl.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Generator.Next", 0, 0, func() { gen.Next() }},
	} {
		alloctest.Check(t, row.name, row.ceilAllocs, row.ceilBytes, row.f)
	}
}

// nopKV answers every command with one reused empty reply.
type nopKV struct{ reps []wire.Reply }

func (k *nopKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	if len(cmds) > len(k.reps) {
		k.reps = make([]wire.Reply, len(cmds))
	}
	return k.reps[:len(cmds)], nil
}

func (k *nopKV) Close() error { return nil }
