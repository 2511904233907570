//go:build !race

package retwis

import (
	"runtime"
	"runtime/debug"
	"testing"

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
		allocs, bytes := perCall(row.f)
		if allocs > row.ceilAllocs || bytes > row.ceilBytes {
			t.Errorf("%s: %.3f allocations, %.3f B per call; ceiling %g, %g B", row.name, allocs, bytes, row.ceilAllocs, row.ceilBytes)
		} else if allocs < row.ceilAllocs || bytes < row.ceilBytes {
			t.Logf("%s: %.3f allocations, %.3f B per call; ceiling %g, %g B — lower the ceiling", row.name, allocs, bytes, row.ceilAllocs, row.ceilBytes)
		}
	}
}

// perCall runs f a thousand times on one processor and returns the
// allocations and bytes one call made on average. It first runs f 64 times
// on that processor to reach steady state: a sync.Pool keeps what was put
// back on the processor that put it, so warming up on another one would
// leave the measured calls a cold pool. The collector is off meanwhile: a
// collection empties the pools, and refilling them allocates, which moved
// the averages by a few thousandths.
func perCall(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 64; i++ {
		f()
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
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
