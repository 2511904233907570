package wire

import (
	"bytes"
	"strings"
	"testing"
)

// The Into decoders recycle their destination; the plain decoders promise
// the opposite. These tests pin both halves of that contract.

// TestPlainDecodersReturnCallerOwnedMemory: what ReadCommand and ReadReply
// return is untouched by anything the Reader decodes afterwards, through
// either method — the benchmark's replayer and every test in the tree keep
// such results across later reads.
func TestPlainDecodersReturnCallerOwnedMemory(t *testing.T) {
	cmds := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\nAAAA\r\n" + strings.Repeat("*3\r\n$3\r\nSET\r\n$1\r\nj\r\n$4\r\nBBBB\r\n", 8)
	r := NewReader(strings.NewReader(cmds))
	first, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	var dst [][]byte
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			_, err = r.ReadCommand()
		} else {
			dst, err = r.readCommandInto(dst)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sameCommand(first, cmdOf("SET", "k", "AAAA")) {
		t.Fatalf("first command became %q after later reads", first)
	}

	reps := "*2\r\n$4\r\naaaa\r\n$4\r\nbbbb\r\n+OK\r\n" + strings.Repeat("*2\r\n$4\r\ncccc\r\n$4\r\ndddd\r\n+NO\r\n", 4)
	r = NewReader(strings.NewReader(reps))
	arr, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	var into Reply
	for i := 0; i < 8; i++ {
		if i%4 < 2 {
			_, err = r.ReadReply()
		} else {
			err = r.readReplyInto(&into)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := Array(BulkString("aaaa"), BulkString("bbbb")); !sameReply(arr, want) {
		t.Fatalf("first reply became %v after later reads", arr)
	}
	if !sameReply(ok, Simple("OK")) {
		t.Fatalf("second reply became %v after later reads", ok)
	}
}

// TestIntoDecodersReuseTheirDestination: a destination fed back in is decoded
// into in place — same header array, same argument bytes, same element array
// — and a frame it is too small for grows it rather than failing.
func TestIntoDecodersReuseTheirDestination(t *testing.T) {
	r := NewReader(strings.NewReader(
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\nAAAA\r\n" +
			"*2\r\n$3\r\nGET\r\n$1\r\nj\r\n" +
			"*4\r\n$5\r\nLPUSH\r\n$1\r\nl\r\n$9\r\nnine-byte\r\n$1\r\nx\r\n"))
	a, err := r.readCommandInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.readCommandInto(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCommand(b, cmdOf("GET", "j")) {
		t.Fatalf("second command = %q", b)
	}
	if &a[0] != &b[0] || &a[0][0] != &b[0][0] {
		t.Fatal("second decode did not reuse the first one's header and argument bytes")
	}
	c, err := r.readCommandInto(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCommand(c, cmdOf("LPUSH", "l", "nine-byte", "x")) {
		t.Fatalf("third command = %q", c)
	}

	// An array that is not all bulk strings keeps its element storage; one
	// that is keeps its frames' bytes.
	r = NewReader(strings.NewReader("*2\r\n$1\r\na\r\n:1\r\n:7\r\n*2\r\n$1\r\nc\r\n:2\r\n" +
		"*2\r\n$1\r\na\r\n$1\r\nb\r\n:7\r\n*2\r\n$1\r\nc\r\n$1\r\nd\r\n"))
	var rep Reply
	if err := r.readReplyInto(&rep); err != nil {
		t.Fatal(err)
	}
	elems, bulk := &rep.Elems[0], &rep.Elems[0].Bulk[0]
	if err := r.readReplyInto(&rep); err != nil || !sameReply(rep, Int64(7)) {
		t.Fatalf("integer into an array's destination = %v, %v", rep, err)
	}
	if err := r.readReplyInto(&rep); err != nil {
		t.Fatal(err)
	}
	if want := Array(BulkString("c"), Int64(2)); !sameReply(rep, want) {
		t.Fatalf("third reply = %v, want %v", rep, want)
	}
	if &rep.Elems[0] != elems || &rep.Elems[0].Bulk[0] != bulk {
		t.Fatal("an integer reply in between cost the destination its element storage")
	}

	rep = Reply{}
	if err := r.readReplyInto(&rep); err != nil || rep.Kind != KindFrames {
		t.Fatalf("array of bulk strings = %v, %v; want frames", rep, err)
	}
	frames := &rep.Bulk[0]
	if err := r.readReplyInto(&rep); err != nil || !sameReply(rep, Int64(7)) {
		t.Fatalf("integer into a frames destination = %v, %v", rep, err)
	}
	if err := r.readReplyInto(&rep); err != nil {
		t.Fatal(err)
	}
	if want := Frames(2, []byte("$1\r\nc\r\n$1\r\nd\r\n")); !sameReply(rep, want) {
		t.Fatalf("last reply = %+v, want %+v", rep, want)
	}
	if &rep.Bulk[0] != frames {
		t.Fatal("an integer reply in between cost the destination its frames' storage")
	}
}

// TestTrimBoundsRecycledStorage: whatever was decoded, a destination slice
// passed through trimSlots carries at most RetainTotal bytes
// into the next round, no buffer above RetainBuf, and reports what it kept.
func TestTrimBoundsRecycledStorage(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<20)
	var frames bytes.Buffer
	w := NewWriter(&frames)
	w.WriteCommand([]byte("SET"), []byte("k"), big)
	for i := 0; i < 2000; i++ {
		w.WriteCommand([]byte("SET"), []byte("key"), bytes.Repeat([]byte("v"), 100))
	}
	w.Flush()
	r := NewReader(&frames)
	var cmds [][][]byte
	for i := 0; i < 2001; i++ {
		cmd, err := r.readCommandInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	kept, retained := trimSlots(cmds, commandSize)
	if len(kept) != 0 || cap(kept) == 0 || cap(kept) >= 2001 {
		t.Fatalf("trimSlots kept len %d cap %d of 2001 commands, want an empty slice over part of them", len(kept), cap(kept))
	}
	if got := commandBytes(t, kept); got != retained || retained > RetainTotal {
		t.Fatalf("trimSlots reports %d bytes retained, a walk finds %d, bound %d", retained, got, RetainTotal)
	}
	if first := kept[:1][0]; first[:3][2] != nil || first[:3][1] == nil {
		t.Fatal("the 1 MiB argument was kept, or its small neighbour dropped")
	}

	frames.Reset()
	w.WriteReply(Bulk(big))
	// Integers, so the array keeps 3000 element headers rather than frames.
	elems := make([]Reply, 3000)
	for i := range elems {
		elems[i] = Int64(int64(i))
	}
	w.WriteReply(Array(elems...))
	w.WriteReply(Array(BulkString("a"), Bulk(big)))
	w.Flush()
	reps := make([]Reply, 3)
	for i := range reps {
		if err := r.readReplyInto(&reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	keptReps, retained := trimSlots(reps, replySize)
	if cap(keptReps) != 1 || keptReps[:1][0].Bulk != nil {
		t.Fatalf("trimSlots kept %d replies, first Bulk cap %d: want the first, minus its 1 MiB buffer",
			cap(keptReps), cap(keptReps[:1][0].Bulk))
	}
	if retained > RetainTotal {
		t.Fatalf("trimSlots retained %d bytes, bound %d", retained, RetainTotal)
	}
	// Within budget an array keeps its elements but not an oversized one's bytes.
	small := []Reply{reps[2]}
	keptReps, _ = trimSlots(small, replySize)
	if e := keptReps[:1][0].Elems; cap(e) < 2 || e[:2][0].Bulk == nil || e[:2][1].Bulk != nil {
		t.Fatal("trimSlots should keep a small array's elements and drop only the 1 MiB one's buffer")
	}
}

// commandBytes walks cmds to capacity and counts what commandSize counts.
func commandBytes(t *testing.T, cmds [][][]byte) int {
	t.Helper()
	n := 0
	for _, cmd := range cmds[:cap(cmds)] {
		cmd = cmd[:cap(cmd)]
		n += sliceBytes * (1 + len(cmd))
		for _, arg := range cmd {
			if cap(arg) > RetainBuf {
				t.Fatalf("an argument buffer of %d bytes survived the trim", cap(arg))
			}
			n += cap(arg)
		}
	}
	return n
}
