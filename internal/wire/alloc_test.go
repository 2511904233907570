//go:build !race

package wire

import (
	"bytes"
	"math"
	"testing"
)

// TestEncodeAllocatesNothingAtAnyFillLevel: a frame is assembled in the
// writer's free space only when it fits there and otherwise goes through
// bufio, so no fill level makes an encode allocate. (The race detector
// allocates on its own, hence the build tag.)
func TestEncodeAllocatesNothingAtAnyFillLevel(t *testing.T) {
	const size = 256
	var out bytes.Buffer
	w := NewWriterSize(&out, size)
	filler := bytes.Repeat([]byte{'.'}, size)
	rep := Array(BulkString("a-twenty-byte-tweet!"), Simple("OK"), Err("ERR no such key"),
		Int64(math.MinInt64), Null(), Bulk(make([]byte, size+10)))
	cmd := [][]byte{[]byte("ZADD"), []byte("posts:123"), []byte("17"), []byte("a-twenty-byte-tweet!")}
	for name, write := range map[string]func() error{
		"WriteReply":   func() error { return w.WriteReply(rep) },
		"WriteCommand": func() error { return w.WriteCommand(cmd...) },
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for fill := 0; fill <= size; fill++ {
				out.Reset()
				if _, err := w.bw.Write(filler[:fill]); err != nil {
					t.Fatal(err)
				}
				if err := write(); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s at every fill level of a %d-byte buffer: %v allocations, want 0", name, size, allocs)
		}
	}
}
