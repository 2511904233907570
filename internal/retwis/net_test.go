package retwis

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/wire"
)

func netTestParams() Params {
	p := DefaultParams()
	p.Users = 64
	p.Threads = 2
	p.OpsPerThread = 200
	p.Duration = 0
	p.MaxDegree = 8
	return p
}

func TestGeneratorDeterministicAndPartitioned(t *testing.T) {
	p := netTestParams()
	part := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		part[owner(UserID(u), p.Threads)] = append(part[owner(UserID(u), p.Threads)], UserID(u))
	}
	for tid := 0; tid < p.Threads; tid++ {
		a := NewGenerator(tid, p, part[tid], false)
		b := NewGenerator(tid, p, part[tid], false)
		for i := 0; i < 500; i++ {
			opA, opB := a.Next(), b.Next()
			if opA != opB {
				t.Fatalf("tid %d op %d: generators diverge: %+v vs %+v", tid, i, opA, opB)
			}
			// Every acting user (and every fresh id) stays on the
			// generating thread's ring position.
			if got := owner(opA.User, p.Threads); got != tid {
				t.Fatalf("tid %d op %d (%s): user %d owned by %d", tid, i, opA.Kind, opA.User, got)
			}
			if opA.Kind == OpAddUser && int64(opA.User) < int64(p.Users) {
				t.Fatalf("AddUser reused existing id %d", opA.User)
			}
		}
	}
}

func TestGeneratorConfinedTargets(t *testing.T) {
	p := netTestParams()
	part := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		part[owner(UserID(u), p.Threads)] = append(part[owner(UserID(u), p.Threads)], UserID(u))
	}
	g := NewGenerator(1, p, part[1], true)
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Kind == OpFollow && owner(op.Target, p.Threads) != 1 {
			t.Fatalf("confined generator picked out-of-partition target %d", op.Target)
		}
	}
}

func TestNetClientAgainstLocalStore(t *testing.T) {
	st, err := server.NewStore(server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	p := netTestParams()
	graph := BuildGraph(p)
	kv := &LocalKV{St: st}
	if err := SeedKV(kv, p, graph); err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("seeding left the store empty")
	}

	cl := NewNetClient(kv, graph)
	gen := NewGenerator(0, p, usersOf(p, 0), false)
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 10; i++ {
			cl.AppendOp(gen.Next())
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}

	// Spot-check the key scheme took effect: a post bumped the counter.
	rep := st.Exec([][]byte{[]byte("GET"), []byte("stat:posts")})
	if rep.Kind == 0 || rep.IsError() {
		t.Fatalf("stat:posts reply %v", rep)
	}
}

func usersOf(p Params, tid int) []UserID {
	var mine []UserID
	for u := 0; u < p.Users; u++ {
		if owner(UserID(u), p.Threads) == tid {
			mine = append(mine, UserID(u))
		}
	}
	return mine
}

func TestRunNetSelfHostedAndRemote(t *testing.T) {
	np := NetParams{Workload: netTestParams(), Store: server.StoreStriped, Pipeline: 8}
	pt, err := RunNet(np)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != server.StoreStriped || pt.Conns != 2 {
		t.Fatalf("point %+v", pt)
	}
	wantOps := int64(2 * 200) // OpsPerThread mode rounds to pipeline multiples: 200 % 8 == 0
	if pt.Ops != wantOps {
		t.Fatalf("ops = %d, want %d", pt.Ops, wantOps)
	}
	if pt.Commands < pt.Ops || pt.OpsPerSec <= 0 {
		t.Fatalf("implausible point %+v", pt)
	}
	if pt.P50us > pt.P99us || pt.P99us > pt.MaxUs {
		t.Fatalf("percentiles out of order: %+v", pt)
	}

	// Against a live address: boot a server, point RunNet at it.
	srv, err := server.New(server.Config{Store: server.StoreConfig{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	np.Addr = srv.Addr().String()
	np.Workload.OpsPerThread = 80
	pt, err = RunNet(np)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != "remote" || pt.Ops != 2*80 {
		t.Fatalf("remote point %+v", pt)
	}
}

func TestNetCurveRunsAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend curve in short mode")
	}
	np := NetParams{Workload: netTestParams(), Pipeline: 4}
	np.Workload.OpsPerThread = 40
	pts, err := NetCurve(io.Discard, np, []string{server.StoreAdaptive, server.StoreStriped})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Store == pts[1].Store {
		t.Fatalf("points %+v", pts)
	}
}

// TestWireKVRepliesReusedAndBounded pins the KV.ExecPipe contract on the
// wire client: replies are decoded into storage the next ExecPipe reuses
// (so they are valid until then, not after), array elements go to the one
// arena whichever command they answer, and neither a megabyte value nor a
// 3000-element array stays pinned once answered — carried-over capacity is
// at most wire.RetainTotal for the replies and as much for the arena.
func TestWireKVRepliesReusedAndBounded(t *testing.T) {
	srv, err := server.New(server.Config{Store: server.StoreConfig{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	kv, err := DialKV(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	b := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	exec := func(cmds ...[][]byte) []wire.Reply {
		t.Helper()
		reps, err := kv.ExecPipe(cmds)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			if rep.IsError() {
				t.Fatalf("%s answered %v", cmds[i][0], rep)
			}
		}
		return reps
	}

	exec(b("LPUSH", "l", "one", "two", "three"), b("SET", "k", "value"))
	// The array answers command 1, then command 0: both decodes land at the
	// start of the arena, and the first reply's slot is decoded into again.
	exec(b("GET", "k"), b("LRANGE", "l", "0", "-1")) // sizes the arena
	first := exec(b("GET", "k"), b("LRANGE", "l", "0", "-1"))
	slot, elem := &first[0], &first[1].Elems[0]
	if first[0].Text() != "value" || len(first[1].Elems) != 3 || first[1].Elems[0].Text() != "three" {
		t.Fatalf("first pipeline = %v", first)
	}
	second := exec(b("LRANGE", "l", "0", "1"), b("GET", "k"))
	if len(second[0].Elems) != 2 || second[0].Elems[1].Text() != "two" || second[1].Text() != "value" {
		t.Fatalf("second pipeline = %v", second)
	}
	if &second[0] != slot || &second[0].Elems[0] != elem {
		t.Fatal("the second ExecPipe did not reuse the first one's reply and element storage")
	}

	big := make([]byte, 1<<20)
	exec([][]byte{[]byte("SET"), []byte("big"), big})
	long := b("LPUSH", "long")
	for i := 0; i < 1000; i++ {
		long = append(long, []byte("element"))
	}
	exec(long, long, long)
	reps := exec(b("GET", "big"), b("LRANGE", "long", "0", "-1"))
	if len(reps[0].Bulk) != 1<<20 || len(reps[1].Elems) != 3000 {
		t.Fatalf("big pipeline answered %d bytes, %d elements", len(reps[0].Bulk), len(reps[1].Elems))
	}
	exec(b("GET", "k"))
	for i := range kv.reps[:cap(kv.reps)] {
		kv.reps[:cap(kv.reps)][i].Elems = nil // windows into the arena, counted there
	}
	_, top := wire.TrimReplies(kv.reps)
	_, arena := wire.TrimReplies(kv.elems)
	if top > wire.RetainTotal || arena > wire.RetainTotal || cap(kv.reps[:1][0].Bulk) > wire.RetainBuf {
		t.Fatalf("after the big pipeline the client still holds %d reply bytes, %d arena bytes (bound %d each), a %d-byte buffer in slot 0",
			top, arena, wire.RetainTotal, cap(kv.reps[:1][0].Bulk))
	}
}

// TestWireKVArenaTrimIsExact: the arena trim walks only the slots the last
// flush decoded into, yet after every flush it must leave the arena within
// wire.RetainTotal and its running count equal to what a whole-arena
// wire.TrimReplies walk finds. Pipelines of random LRANGEs over lists of
// small, mid-sized and over-RetainBuf elements grow, shrink, cut and
// replace the arena.
func TestWireKVArenaTrimIsExact(t *testing.T) {
	srv, err := server.New(server.Config{Store: server.StoreConfig{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	kv, err := DialKV(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	lists := []struct {
		key       string
		n, length int
	}{{"small", 1500, 20}, {"mid", 300, 300}, {"big", 12, 2 * wire.RetainBuf}}
	for _, l := range lists {
		var pushes [][][]byte
		for i := 0; i < l.n; i++ {
			if i%500 == 0 {
				pushes = append(pushes, [][]byte{[]byte("LPUSH"), []byte(l.key)})
			}
			last := &pushes[len(pushes)-1]
			*last = append(*last, bytes.Repeat([]byte{'a' + byte(i%26)}, l.length))
		}
		if _, err := kv.ExecPipe(pushes); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for flush := 0; flush < 300; flush++ {
		var cmds [][][]byte
		for c := rng.Intn(6); c >= 0; c-- {
			l := lists[rng.Intn(len(lists))]
			n := rng.Intn(l.n + 1)
			if rng.Intn(4) > 0 {
				n = rng.Intn(min(l.n, 60) + 1)
			}
			cmds = append(cmds, [][]byte{[]byte("LRANGE"), []byte(l.key), []byte("0"), []byte(strconv.Itoa(n - 1))})
		}
		reps, err := kv.ExecPipe(cmds)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			if rep.Kind != wire.KindArray {
				t.Fatalf("flush %d: %q answered %v", flush, cmds[i], rep)
			}
		}
		kv.trimArena() // what the next flush starts with
		counted := cap(kv.elems)*replyBytes + kv.extra
		kept, walked := wire.TrimReplies(kv.elems)
		if cap(kept) != cap(kv.elems) || walked != counted || walked > wire.RetainTotal {
			t.Fatalf("flush %d: arena of %d slots counted %d bytes; a whole walk keeps %d slots, %d bytes (bound %d)",
				flush, cap(kv.elems), counted, cap(kept), walked, wire.RetainTotal)
		}
	}
}
