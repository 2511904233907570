//go:build !race

package retwis

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/alloctest"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/wire"
)

// TestAddUserAllocCeiling pins what the per-user writes cost on the DEGO
// row, in allocations and bytes per call. AddUser is 5 % of the Table-2 mix
// but allocates most of the mix's bytes: a fresh key in each of four
// segmented tables (node and value box), two empty follower sets and a
// timeline queue whose facade and representation are one object; the
// profile is the value in its box. UpdateProfile replaces that value, which
// costs the box alone. The NetClient row is the wire client's side of an
// op: 16 drawn ops expanded into their commands and flushed to a KV that
// answers for nothing, 6.88 allocations and 234 B per op (key and argument
// bytes, fanout payloads). A change may lower a number here, never raise one.
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
	cl := NewNetClient(&nopKV{}, BuildGraph(p))
	for _, row := range []struct {
		name                  string
		ceilAllocs, ceilBytes float64
		f                     func()
	}{
		{"AddUser", 11, 320, func() { b.AddUser(h, u); u++ }},
		{"UpdateProfile", 1, 8, func() { version++; b.UpdateProfile(h, 0, version) }},
		{"NetClient batch of 16 ops", 110.121, 3742.096, func() {
			for _, op := range ops[:batch] {
				cl.AppendOp(op)
			}
			ops = ops[batch:]
			cl.Flush()
		}},
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
