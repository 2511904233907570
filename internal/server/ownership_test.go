package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

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
// have cloned what it stored (shard.exec's bytes.Clone at SET and LPUSH,
// shard.create's strings.Clone of a fresh key): without the clones the
// stored bytes are the connection's argument buffers, the values read back
// as the later payloads and the keys answer under the later names.
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
// pool, and array replies are cut from that scratch's arena. What it
// returns must be a copy: 100 further batches, from this goroutine and from
// others, reuse the arena, and without ExecBatch's element copy the kept
// LRANGE reply would show their elements.
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
// index corner cases, then a seeded random walk.
func TestListMatchesHeadFirstModel(t *testing.T) {
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

	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 400; step++ {
		switch n := len(model); {
		case n == 0 || rng.Intn(3) > 0:
			vs := make([]string, 1+rng.Intn(3))
			for i := range vs {
				vs[i] = "v" + itoa(step) + "." + itoa(i)
			}
			push(vs...)
		default:
			trim(rng.Intn(2*n+2)-n-1, rng.Intn(2*n+2)-n-1)
		}
	}
}

// TestTimelineSettlesInOneArray: the retwis pattern — push one, trim to the
// newest 50 — forever. The list must neither grow nor keep reallocating:
// its backing array stays a small multiple of the live length, and dropped
// slots are cleared so trimmed entries are not pinned.
func TestTimelineSettlesInOneArray(t *testing.T) {
	var l list
	for i := 0; i < 10_000; i++ {
		l.push([]byte("tweet"))
		if l.len() > 50 {
			l.keep(0, 49)
		}
	}
	if l.len() != 50 {
		t.Fatalf("len = %d, want 50", l.len())
	}
	if cap(l.buf) > 4*50 {
		t.Fatalf("cap = %d after 10000 push+trim cycles, want at most %d", cap(l.buf), 4*50)
	}
	for i, v := range l.buf[:cap(l.buf)] {
		if live := i >= l.off && i < len(l.buf); (v != nil) != live {
			t.Fatalf("slot %d of %d: nil=%v but live=%v (off %d, len %d)", i, cap(l.buf), v == nil, live, l.off, len(l.buf))
		}
	}
	array := &l.buf[:1][0]
	for i := 0; i < 1000; i++ {
		l.push([]byte("tweet"))
		l.keep(0, 49)
	}
	if &l.buf[:1][0] != array {
		t.Fatal("a settled timeline moved to a new backing array")
	}
}

// TestConnectionRetentionIsBounded: a 1 MiB SET followed by small commands.
// The connection's recycled command storage must not keep the megabyte, nor
// more than wire.RetainTotal altogether, however many slots a deep pipeline
// opened.
func TestConnectionRetentionIsBounded(t *testing.T) {
	var frames bytes.Buffer
	w := wire.NewWriter(&frames)
	w.WriteCommand([]byte("SET"), []byte("big"), bytes.Repeat([]byte("x"), 1<<20))
	const small = 4000
	for i := 0; i < small; i++ {
		w.WriteCommand([]byte("SET"), []byte("key:"+strconv.Itoa(i)), []byte("value"))
	}
	w.Flush()
	r := wire.NewReader(&frames)

	var slots cmdSlots
	for i := 0; i < 1+small/2; i++ { // one deep batch, the megabyte in slot 0
		if err := slots.read(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := string(slots.cmds[0][1]); got != "big" || len(slots.cmds[0][2]) != 1<<20 {
		t.Fatalf("slot 0 = %q with a %d-byte value", got, len(slots.cmds[0][2]))
	}
	slots.reset()
	if slots.retained > wire.RetainTotal || slots.retained != slotBytes(slots.cmds) {
		t.Fatalf("after the deep batch: %d bytes reported, %d found, bound %d",
			slots.retained, slotBytes(slots.cmds), wire.RetainTotal)
	}
	if cap(slots.cmds) >= small/2 || cap(slots.cmds) == 0 {
		t.Fatalf("%d of %d slots kept: want some, not all", cap(slots.cmds), 1+small/2)
	}
	for i := 0; i < small/2; i += 2 { // then two-command batches, like any small client
		for j := 0; j < 2; j++ {
			if err := slots.read(r); err != nil {
				t.Fatal(err)
			}
		}
		slots.reset()
		if slots.retained > wire.RetainTotal {
			t.Fatalf("batch %d: %d bytes retained, bound %d", i/2, slots.retained, wire.RetainTotal)
		}
	}
	if got := slotBytes(slots.cmds); got != slots.retained {
		t.Fatalf("%d bytes reported, %d found", slots.retained, got)
	}
}

// TestCommandSlotTrimIsExact: cmdSlots.reset walks only the slots the batch
// decoded into, yet after every batch it must leave the slots as a
// whole-slice wire.TrimCommands leaves a twin fed the same commands — same
// capacity, same byte count — and a further whole walk must find that count
// again. Random batches of shallow and deep pipelines, few and many
// arguments, small, mid-sized and over-RetainBuf arguments grow the slots,
// cut them at the bound and carry oversized buffers into later batches.
func TestCommandSlotTrimIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var frames bytes.Buffer
	w := wire.NewWriter(&frames)
	var depths []int
	for batch := 0; batch < 400; batch++ {
		depth := 1 + rng.Intn(4)
		if rng.Intn(8) == 0 {
			depth = 1 + rng.Intn(300)
		}
		depths = append(depths, depth)
		for c := 0; c < depth; c++ {
			args := make([][]byte, 1+rng.Intn(5))
			if rng.Intn(20) == 0 {
				args = make([][]byte, 1+rng.Intn(200))
			}
			for i := range args {
				size := rng.Intn(40)
				switch rng.Intn(50) {
				case 0:
					size = wire.RetainBuf + 1 + rng.Intn(wire.RetainBuf)
				case 1, 2, 3:
					size = 500 + rng.Intn(3000)
				}
				args[i] = bytes.Repeat([]byte{'a' + byte(c%26)}, size)
			}
			w.WriteCommand(args...)
		}
	}
	w.Flush()
	r, twinR := wire.NewReader(bytes.NewReader(frames.Bytes())), wire.NewReader(bytes.NewReader(frames.Bytes()))

	var slots cmdSlots
	var twin [][][]byte // decoded like cmdSlots.read, trimmed whole
	for batch, depth := range depths {
		for c := 0; c < depth; c++ {
			if err := slots.read(r); err != nil {
				t.Fatal(err)
			}
			var dst [][]byte
			if n := len(twin); n < cap(twin) {
				dst = twin[:n+1][n]
			}
			cmd, err := twinR.ReadCommandInto(dst)
			if err != nil {
				t.Fatal(err)
			}
			twin = append(twin, cmd)
		}
		slots.reset()
		var want int
		twin, want = wire.TrimCommands(twin)
		kept, walked := wire.TrimCommands(slots.cmds)
		if cap(slots.cmds) != cap(twin) || slots.retained != want || cap(kept) != cap(slots.cmds) || walked != want {
			t.Fatalf("batch %d (%d deep): %d slots, %d bytes counted; the whole-trimmed twin keeps %d slots, %d bytes; a whole walk keeps %d slots, %d bytes",
				batch, depth, cap(slots.cmds), slots.retained, cap(twin), want, cap(kept), walked)
		}
	}
}

// slotBytes counts the storage cmds carries, to capacity, as
// wire.TrimCommands does, and fails the bound on any single oversized buffer.
func slotBytes(cmds [][][]byte) int {
	const sliceHeader = 24
	n := 0
	for _, c := range cmds[:cap(cmds)] {
		c = c[:cap(c)]
		n += sliceHeader * (1 + len(c))
		for _, arg := range c {
			if cap(arg) > wire.RetainBuf {
				return 1 << 40
			}
			n += cap(arg)
		}
	}
	return n
}
