package retwis

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/loadgen"
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
	part := partitions(p)
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
	part := partitions(p)
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

// TestRunNetSelfHostedAndRemote runs closed-loop points: exactly Ops ops
// whatever the pipeline depth (203 is not a multiple of 8), nothing
// dropped, no schedule and so no target rate.
func TestRunNetSelfHostedAndRemote(t *testing.T) {
	np := NetParams{Workload: netTestParams(), Process: loadgen.Closed, Ops: 400, Workers: 2, Pipeline: 8}
	pt, err := RunNet(np)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != server.StoreAdaptive || pt.Workers != 2 || pt.Process != "closed" {
		t.Fatalf("point %+v", pt)
	}
	if pt.Scheduled != 400 || pt.Executed != 400 || pt.Errors != 0 || pt.Dropped != 0 {
		t.Fatalf("accounting %+v, want all 400 ops executed", pt)
	}
	if pt.AchievedRate <= 0 || pt.TargetRate != 0 || pt.Saturated {
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
	np.Ops = 203
	pt, err = RunNet(np)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != "remote" || pt.Executed != 203 || pt.Scheduled != 203 {
		t.Fatalf("remote point %+v", pt)
	}
}

// TestWireKVRepliesReusedAndBounded pins the KV.ExecPipe contract on the
// wire client: replies are decoded into storage the next ExecPipe reuses
// (so they are valid until then, not after), a list comes back as the
// frames it arrived in, in its command's slot, and neither a megabyte value
// nor a 3000-element list stays pinned once answered — carried-over
// capacity is at most wire.RetainTotal for the replies and as much for the
// element arena.
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
	// An array of bulk strings that arrives whole comes back as its frames,
	// in the slot of the command it answers: the LRANGE's frames land in
	// slot 1's storage, and the next pipeline that answers slot 1 with a
	// list decodes into it again. The server answers a pipeline with one
	// write, and the client refills its drained buffer before decoding, so
	// these short lists arrive whole.
	exec(b("GET", "k"), b("LRANGE", "l", "0", "-1")) // sizes the slots
	first := exec(b("GET", "k"), b("LRANGE", "l", "0", "-1"))
	if first[1].Kind != wire.KindFrames {
		t.Fatalf("LRANGE answered %+v, want frames", first[1])
	}
	slot, frames := &first[0], &first[1].Bulk[0]
	list := first[1].Expand()
	if first[0].Text() != "value" || len(list.Elems) != 3 || list.Elems[0].Text() != "three" {
		t.Fatalf("first pipeline = %v", first)
	}
	second := exec(b("GET", "k"), b("LRANGE", "l", "0", "1"))
	if second[1].Kind != wire.KindFrames {
		t.Fatalf("LRANGE answered %+v, want frames", second[1])
	}
	list = second[1].Expand()
	if len(list.Elems) != 2 || list.Elems[1].Text() != "two" || second[0].Text() != "value" {
		t.Fatalf("second pipeline = %v", second)
	}
	if &second[0] != slot || &second[1].Bulk[0] != frames {
		t.Fatal("the second ExecPipe did not reuse the first one's reply and frames storage")
	}

	big := make([]byte, 1<<20)
	exec([][]byte{[]byte("SET"), []byte("big"), big})
	long := b("LPUSH", "long")
	for i := 0; i < 1000; i++ {
		long = append(long, []byte("element"))
	}
	exec(long, long, long)
	reps := exec(b("GET", "big"), b("LRANGE", "long", "0", "-1"))
	if n := len(reps[1].Expand().Elems); len(reps[0].Bulk) != 1<<20 || n != 3000 {
		t.Fatalf("big pipeline answered %d bytes, %d elements", len(reps[0].Bulk), n)
	}
	slot0 := exec(b("GET", "k"))[0] // decoded after the big pipeline was trimmed
	top, arena := kv.replies.Retained()
	if top > wire.RetainTotal || arena > wire.RetainTotal || cap(slot0.Bulk) > wire.RetainBuf {
		t.Fatalf("after the big pipeline the client still holds %d reply bytes, %d arena bytes (bound %d each), a %d-byte buffer in slot 0",
			top, arena, wire.RetainTotal, cap(slot0.Bulk))
	}
}

// TestWireReplayAgreesWithKinds replays TestKindsAgreeOnOneOpSequence's op
// sequence through a NetClient over a LocalKV and reads back what the store
// holds: every user's follower count and timeline, the community and the
// user count must be the JUC kind's. The wire timeline is the last
// TimelineSize tweets delivered, newest first; the in-process one is drained
// by each read, so JUC's counterpart is the last TimelineSize tweets of
// every read and a final drain, in order. A Post fans out client-side over
// the client's graph, which the test keeps in step with the follower sets:
// a follow op (Follow, then the converse) removes a seeded edge it repeats.
func TestWireReplayAgreesWithKinds(t *testing.T) {
	p := agreeParams()
	type state struct {
		Users     int
		Followers []int
		Community []UserID
		Timelines [][]Tweet
	}
	last := func(tweets []Tweet) []Tweet { return tweets[max(0, len(tweets)-TimelineSize):] }

	// The JUC kind, in process.
	reg := core.NewRegistry(8)
	h := reg.MustRegister()
	b, _ := Build(KindJUC, p, reg)
	gen := agreeStream(p)
	delivered := make([][]Tweet, p.Users)
	tl := make([]Tweet, TimelineSize)
	for range p.OpsPerThread {
		op := gen.Next()
		if op.Kind == OpTimeline {
			n := b.Timeline(h, op.User, tl)
			delivered[op.User] = append(delivered[op.User], tl[:n]...)
			continue
		}
		apply(b, h, op, tl)
	}
	want := state{Users: b.Users()}
	for u := range p.Users {
		n := b.Timeline(h, UserID(u), tl)
		want.Followers = append(want.Followers, b.Followers(UserID(u)))
		want.Timelines = append(want.Timelines, last(append(delivered[u], tl[:n]...)))
		if b.InGroup(UserID(u)) {
			want.Community = append(want.Community, UserID(u))
		}
	}

	// The same sequence over the wire.
	st, err := server.NewStore(server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv := &LocalKV{St: st}
	graph := BuildGraph(p)
	if err := SeedKV(kv, p, graph); err != nil {
		t.Fatal(err)
	}
	cl := NewNetClient(kv, graph)
	gen = agreeStream(p)
	for i := range p.OpsPerThread {
		op := gen.Next()
		cl.AppendOp(op)
		if op.Kind == OpFollow {
			fol := graph.Followers[op.Target]
			graph.Followers[op.Target] = slices.DeleteFunc(fol, func(f UserID) bool { return f == op.User })
		}
		if i%16 == 15 {
			if err := cl.Flush(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	members := func(key string) []UserID {
		rep := st.Exec([][]byte{[]byte("SMEMBERS"), []byte(key)}).Expand()
		ids := make([]UserID, len(rep.Elems))
		for i, e := range rep.Elems {
			n, err := strconv.ParseInt(string(e.Bulk), 10, 64)
			if err != nil {
				t.Fatalf("%s member %q: %v", key, e.Bulk, err)
			}
			ids[i] = UserID(n)
		}
		return ids
	}
	var got state
	for u := range p.Users + p.OpsPerThread {
		rep := st.Exec([][]byte{[]byte("EXISTS"), []byte("profile:" + strconv.Itoa(u))})
		got.Users += int(rep.Int)
	}
	for u := range p.Users {
		got.Followers = append(got.Followers, len(members("followers:"+strconv.Itoa(u))))
		rep := st.Exec([][]byte{[]byte("LRANGE"), []byte("timeline:" + strconv.Itoa(u)), []byte("0"), []byte("-1")}).Expand()
		var tweets []Tweet
		for i := len(rep.Elems) - 1; i >= 0; i-- {
			author, seq, ok := strings.Cut(string(rep.Elems[i].Bulk), ":")
			a, errA := strconv.ParseInt(author, 10, 64)
			s, errS := strconv.ParseInt(seq, 10, 64)
			if !ok || errA != nil || errS != nil {
				t.Fatalf("timeline:%d entry %q is no <author>:<seq>", u, rep.Elems[i].Bulk)
			}
			tweets = append(tweets, Tweet{Author: UserID(a), Seq: s})
		}
		got.Timelines = append(got.Timelines, tweets)
	}
	// SMEMBERS sorts the members as strings.
	got.Community = members("community")
	slices.Sort(got.Community)

	if want.Users <= p.Users || len(want.Community) == 0 {
		t.Fatalf("degenerate replay: %d users, %d in the community", want.Users, len(want.Community))
	}
	if got.Users != want.Users {
		t.Errorf("wire holds %d profiles, JUC %d users", got.Users, want.Users)
	}
	if !slices.Equal(got.Community, want.Community) {
		t.Errorf("wire community %v, JUC %v", got.Community, want.Community)
	}
	delivering := 0
	for u := range p.Users {
		if got.Followers[u] != want.Followers[u] {
			t.Errorf("user %d: %d followers over the wire, %d in JUC", u, got.Followers[u], want.Followers[u])
		}
		if !slices.Equal(got.Timelines[u], want.Timelines[u]) {
			t.Errorf("user %d: wire timeline %v, JUC %v", u, got.Timelines[u], want.Timelines[u])
		}
		if len(want.Timelines[u]) > 0 {
			delivering++
		}
	}
	if delivering == 0 {
		t.Fatal("degenerate replay: no timeline holds a tweet")
	}
}
