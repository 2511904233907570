package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/wire"
)

// The serving path recycles memory — decoded arguments, the execution
// scratch, reply-element arenas — so what each layer may keep, and until
// when, is a contract (ARCHITECTURE.md, "who owns which bytes"). Each test
// here fails if one of the copies that contract relies on is removed.

// pipeline sends cmds in one flush and reads one reply per command.
func pipeline(t *testing.T, r *wire.Reader, w *wire.Writer, cmds ...[]string) []wire.Reply {
	t.Helper()
	for _, c := range cmds {
		if err := w.WriteCommandString(c...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reps := make([]wire.Reply, len(cmds))
	for i := range reps {
		reps[i] = mustReply(t, r)
	}
	return reps
}

// TestStoredValuesSurviveSlotReuse: on one connection, later batches decode
// same-length payloads into the pipeline slots that carried a SET value and
// two LPUSH elements, and same-length keys into the slots that carried a key
// each creating verb (SET, INCR, SADD, LPUSH, ZADD) created. The shard must
// have copied what it stored (shard.exec's bytes.Clone at SET, LPUSH's
// encoding into the list's buffer, shard.create's strings.Clone of a fresh
// key): without the copies the stored bytes are the connection's argument
// buffers, the values read back as the later payloads and the keys answer
// under the later names.
func TestStoredValuesSurviveSlotReuse(t *testing.T) {
	t.Run(StoreAdaptive, func(t *testing.T) {
		srv := startTestServer(t, Config{Store: StoreConfig{Shards: 2, Kind: StoreAdaptive, Capacity: 128}})
		r, w, _ := dialTestServer(t, srv)
		pipeline(t, r, w, []string{"SET", "k", "AAAA"}, []string{"LPUSH", "l", "aaaa", "bbbb"})
		for i := 0; i < 8; i++ {
			v := fmt.Sprintf("%04d", i)
			pipeline(t, r, w, []string{"SET", "x", v}, []string{"LPUSH", "m", v, v})
			// The same slots again, one command per flush.
			pipeline(t, r, w, []string{"SET", "y", v})
			pipeline(t, r, w, []string{"LPUSH", "n", v, v})
		}
		reps := pipeline(t, r, w, []string{"GET", "k"}, []string{"LRANGE", "l", "0", "-1"})
		wantBulk(t, reps[0], "AAAA")
		wantMembers(t, reps[1], "bbbb", "aaaa")

		// Keys: each round creates five keys through the five slots the
		// round before used, names of the same length.
		const rounds = 8
		creates := func(i int) [][]string {
			return [][]string{{"SET", "s:" + strconv.Itoa(i), "v"}, {"INCR", "i:" + strconv.Itoa(i)},
				{"SADD", "a:" + strconv.Itoa(i), "m"}, {"LPUSH", "l:" + strconv.Itoa(i), "e"},
				{"ZADD", "z:" + strconv.Itoa(i), "1", "m"}}
		}
		for i := range rounds {
			pipeline(t, r, w, creates(i)...)
		}
		for i := range rounds {
			// A PING first shifts every lookup into another verb's slot:
			// a key that stayed a view of its slot would read back as
			// whatever that slot decoded last, not as the name asked for.
			n := strconv.Itoa(i)
			reps := pipeline(t, r, w, []string{"PING"}, []string{"GET", "s:" + n}, []string{"GET", "i:" + n},
				[]string{"SMEMBERS", "a:" + n}, []string{"LRANGE", "l:" + n, "0", "-1"},
				[]string{"ZRANGEBYSCORE", "z:" + n, "-inf", "+inf"})
			wantBulk(t, reps[1], "v")
			wantBulk(t, reps[2], "1")
			wantMembers(t, reps[3], "m")
			wantMembers(t, reps[4], "e")
			wantMembers(t, reps[5], "m")
		}
		// k, l, x, y, m, n and five keys a round.
		wantInt(t, pipeline(t, r, w, []string{"DBSIZE"})[0], int64(6+5*rounds))
	})
}

func cloneReply(r wire.Reply) wire.Reply {
	r.Bulk = bytes.Clone(r.Bulk)
	if r.Elems != nil {
		elems := make([]wire.Reply, len(r.Elems))
		for i, e := range r.Elems {
			elems[i] = cloneReply(e)
		}
		r.Elems = elems
	}
	return r
}

func equalReply(a, b wire.Reply) bool {
	if a.Kind != b.Kind || a.Int != b.Int || !bytes.Equal(a.Bulk, b.Bulk) || len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !equalReply(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}

// TestExecBatchRepliesAreCallerOwned: ExecBatch borrows its scratch from a
// pool, and SMEMBERS and ZRANGEBYSCORE replies are cut from that scratch's
// arena. What it returns must be a copy: 100 further batches, from this
// goroutine and from others, reuse the arena, and without ExecBatch's
// element copy the kept replies would show their elements. The kept LRANGE
// reply aliases its list's frames, which the other batches' reads leave
// alone.
func TestExecBatchRepliesAreCallerOwned(t *testing.T) {
	st := newTestStore(t, 2)
	for i := 0; i < 8; i++ {
		st.Exec(cmd("LPUSH", "mine", "mine-"+strconv.Itoa(i)))
		st.Exec(cmd("LPUSH", "theirs", "theirs-"+strconv.Itoa(i)))
		st.Exec(cmd("SADD", "set", "member-"+strconv.Itoa(i)))
		st.Exec(cmd("ZADD", "scores", strconv.Itoa(i), "z-"+strconv.Itoa(i)))
	}
	st.Exec(cmd("SET", "k", "value"))
	batch := [][][]byte{
		cmd("GET", "k"), cmd("LRANGE", "mine", "0", "-1"), cmd("SMEMBERS", "set"),
		cmd("ZRANGEBYSCORE", "scores", "-inf", "+inf"), cmd("ECHO", "hello"),
	}
	// Once to size the pooled scratch: an arena that grows mid-batch leaves
	// its earlier replies behind in the outgrown array, which hides reuse.
	st.ExecBatch(batch)
	kept := st.ExecBatch(batch)
	want := make([]wire.Reply, len(kept))
	for i, rep := range kept {
		want[i] = cloneReply(rep)
	}
	wantMembers(t, kept[1], "mine-7", "mine-6", "mine-5", "mine-4", "mine-3", "mine-2", "mine-1", "mine-0")

	other := [][][]byte{cmd("LRANGE", "theirs", "0", "-1"), cmd("SET", "k", "other"), cmd("LRANGE", "theirs", "0", "3")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st.ExecBatch(other)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		st.ExecBatch(other)
	}
	wg.Wait()
	for i := range kept {
		if !equalReply(kept[i], want[i]) {
			t.Errorf("reply %d changed under later ExecBatch calls: %v, was %v", i, kept[i], want[i])
		}
	}
}

// headFirst is the reference list the in-place layout is checked against:
// index 0 is the head, every operation copies.
type headFirst [][]byte

func (l headFirst) lpush(vs ...string) headFirst {
	for _, v := range vs {
		l = append(headFirst{[]byte(v)}, l...)
	}
	return l
}

// window resolves redis start/stop against the model, clamped; ok is false
// when the range is empty.
func (l headFirst) window(start, stop int) (from, to int, ok bool) {
	n := len(l)
	if start < 0 {
		start = max(start+n, 0)
	}
	if stop < 0 {
		stop += n
	}
	stop = min(stop, n-1)
	return start, stop, start <= stop && start < n
}

func (l headFirst) lrange(start, stop int) []string {
	out := []string{}
	if from, to, ok := l.window(start, stop); ok {
		for _, v := range l[from : to+1] {
			out = append(out, string(v))
		}
	}
	return out
}

func (l headFirst) ltrim(start, stop int) headFirst {
	from, to, ok := l.window(start, stop)
	if !ok {
		return nil
	}
	return append(headFirst(nil), l[from:to+1]...)
}

// TestListMatchesHeadFirstModel drives LPUSH / LTRIM / LRANGE through the
// store and a naive head-first [][]byte side by side: a fixed table of the
// index corner cases, then a seeded random walk. The values include the
// frames a list stores unusually: empty, payloads on either side of a change
// in header width (9/10 and 99/100 bytes), binary bytes, and CRLF or a whole
// frame inside the payload.
func TestListMatchesHeadFirstModel(t *testing.T) {
	odd := []string{"", strings.Repeat("9", 9), strings.Repeat("a", 10), strings.Repeat("b", 99), strings.Repeat("c", 100),
		"\x00\xff\x01\r", "a\r\nb", "\r\n", "$3\r\nfoo\r\n", "\r\n\r\n*2\r\n"}
	st := newTestStore(t, 1)
	var model headFirst
	itoa := strconv.Itoa
	check := func(step string) {
		t.Helper()
		n := len(model)
		for _, rg := range [][2]int{{0, -1}, {0, 0}, {-1, -1}, {1, 2}, {-3, -2}, {2, 1}, {0, n + 5}, {-n - 5, 1}, {n, n + 1}, {n - 1, n - 1}, {-100, 100}} {
			rep := st.Exec(cmd("LRANGE", "l", itoa(rg[0]), itoa(rg[1])))
			want := model.lrange(rg[0], rg[1])
			if rep.Kind != wire.KindArray || len(rep.Elems) != len(want) {
				t.Fatalf("after %s: LRANGE %d %d = %v, model %q", step, rg[0], rg[1], rep, want)
			}
			for i, e := range rep.Elems {
				if e.Text() != want[i] {
					t.Fatalf("after %s: LRANGE %d %d = %v, model %q", step, rg[0], rg[1], rep, want)
				}
			}
		}
	}
	push := func(vs ...string) {
		t.Helper()
		model = model.lpush(vs...)
		wantInt(t, st.Exec(cmd(append([]string{"LPUSH", "l"}, vs...)...)), int64(len(model)))
		check("LPUSH " + fmt.Sprint(vs))
	}
	trim := func(start, stop int) {
		t.Helper()
		model = model.ltrim(start, stop)
		wantOK(t, st.Exec(cmd("LTRIM", "l", itoa(start), itoa(stop))))
		if len(model) == 0 {
			wantInt(t, st.Exec(cmd("EXISTS", "l")), 0)
		}
		check(fmt.Sprintf("LTRIM %d %d", start, stop))
	}

	check("nothing")
	push("a")
	push("b", "c", "d") // multi-argument push: d ends up at the head
	push("e", "f", "g", "h", "i", "j")
	trim(0, -1)    // keeps everything
	trim(0, 100)   // stop past the end
	trim(-100, 7)  // start before the head
	trim(1, -2)    // interior: drops the head and the tail
	trim(2, 4)     // interior again, on a list already offset
	push("k", "l") // push onto a trimmed list
	trim(-2, -1)   // negative both: the two oldest
	trim(1, 0)     // empty: deletes the key
	push("m", "n", "o")
	trim(5, 9) // wholly past the end: deletes the key
	push("p")
	trim(0, 0)
	push(odd...)
	trim(2, -3)
	push(odd[:5]...)
	trim(-7, 3)

	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 400; step++ {
		switch n := len(model); {
		case n == 0 || rng.Intn(3) > 0:
			vs := make([]string, 1+rng.Intn(3))
			for i := range vs {
				switch rng.Intn(6) {
				case 0, 1:
					vs[i] = odd[rng.Intn(len(odd))]
				case 2:
					b := make([]byte, rng.Intn(120))
					rng.Read(b)
					vs[i] = string(b)
				default:
					vs[i] = "v" + itoa(step) + "." + itoa(i)
				}
			}
			push(vs...)
		default:
			trim(rng.Intn(2*n+2)-n-1, rng.Intn(2*n+2)-n-1)
		}
	}
}

// TestTimelineBufferStaysBounded: the retwis pattern — push one, trim to
// the newest 50 — forever. The buffer must neither grow nor keep
// reallocating: it holds at most three times the live frames' bytes (the
// index and the gap fit in the other two), and a push+trim cycle moves the
// list to a fresh buffer at most once in ten.
func TestTimelineBufferStaysBounded(t *testing.T) {
	var l list
	tweet := [][]byte{[]byte("tweet")}
	cycle := func() {
		l.push(tweet)
		if l.len() > 50 {
			l.keep(0, 49)
		}
	}
	for range 10_000 {
		cycle()
	}
	if l.len() != 50 {
		t.Fatalf("len = %d, want 50", l.len())
	}
	if live := int(l.hi - l.lo); len(l.buf) > 3*live+64 {
		t.Fatalf("buffer holds %d bytes for %d live frame bytes after 10000 push+trim cycles, want at most %d",
			len(l.buf), live, 3*live+64)
	}
	if got := testing.AllocsPerRun(1000, cycle); got > 0.1 {
		t.Fatalf("%v allocations per push+trim cycle, want at most 0.1", got)
	}
}

// TestListRejectsPushPastLimit: a push that would take the buffer past
// maxListBytes, where the index's uint32 offsets end, is refused and leaves
// the list as it was. The list here only claims that many live bytes.
func TestListRejectsPushPastLimit(t *testing.T) {
	l := list{hi: maxListBytes - 8}
	before := l
	if l.push([][]byte{[]byte("x")}) {
		t.Fatal("a push past maxListBytes was accepted")
	}
	if l.buf != nil || l.ilo != before.ilo || l.ihi != before.ihi || l.lo != before.lo || l.hi != before.hi {
		t.Fatalf("a refused push changed the list: %+v, was %+v", l, before)
	}
}

// listBuffer returns the address of key's list buffer, which changes when
// the list moves to a fresh one.
func listBuffer(st *Store, key string) *byte {
	return unsafe.SliceData(st.shards[st.ShardOf([]byte(key))].get(key).list.buf)
}

// TestListRepliesOutliveLaterWrites: a TCP reply is encoded after its
// batch drops the shard's lock, so an LRANGE reply — a window of the list's
// own buffer — may be written while other batches push, trim and delete the
// key. Each round runs an LRANGE batch on its own scratch and then, on
// another scratch, a batch that changes the list; only after the last round
// are the LRANGE replies encoded, and their bytes must be the model's. The
// rounds push and trim the tail until the buffer has moved, drop the head
// and push again, and delete the key: a list that compacted in place, or let a
// push overwrite a dropped head frame, fails here.
func TestListRepliesOutliveLaterWrites(t *testing.T) {
	st := newTestStore(t, 1)
	var model headFirst
	push := func(sc *scratch, v string) {
		model = model.lpush(v)
		st.run(sc, [][][]byte{cmd("LPUSH", "l", v)})
		sc.release()
	}
	trim := func(sc *scratch, start, stop int) {
		model = model.ltrim(start, stop)
		st.run(sc, [][][]byte{cmd("LTRIM", "l", strconv.Itoa(start), strconv.Itoa(stop))})
		sc.release()
	}
	for i := range 10 {
		push(new(scratch), "entry-"+strconv.Itoa(i))
	}

	type read struct {
		sc   *scratch
		want []byte
	}
	var reads []read
	lrange := func() {
		sc := new(scratch)
		st.run(sc, [][][]byte{cmd("LRANGE", "l", "0", "-1")})
		if rep := sc.plans[0].reply(sc.units); rep.Kind != wire.KindFrames {
			t.Fatalf("LRANGE answered %v, want a pre-encoded array", rep)
		}
		elems := make([]wire.Reply, len(model))
		for i, v := range model {
			elems[i] = wire.Bulk(bytes.Clone(v))
		}
		var want bytes.Buffer
		w := wire.NewWriter(&want)
		w.WriteReply(wire.Array(elems...))
		w.Flush()
		reads = append(reads, read{sc, want.Bytes()})
	}
	writer := new(scratch)

	lrange()
	before := listBuffer(st, "l")
	for i := range 100 { // a 10-entry list's gap runs out many times over
		push(writer, "pushed-"+strconv.Itoa(i))
		trim(writer, 0, 9)
	}
	moved := listBuffer(st, "l") != before
	lrange()
	trim(writer, 1, -1)
	push(writer, "after-head-trim")
	lrange()
	st.run(writer, [][][]byte{cmd("DEL", "l")})
	writer.release()

	for i, r := range reads {
		var got bytes.Buffer
		w := wire.NewWriter(&got)
		if err := w.WriteReply(r.sc.plans[0].reply(r.sc.units)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if !bytes.Equal(got.Bytes(), r.want) {
			t.Errorf("LRANGE reply %d changed under later writes:\n got %q\nwant %q", i, got.Bytes(), r.want)
		}
	}
	if !moved {
		t.Error("100 push+trim cycles never moved the list to a fresh buffer")
	}
}
