package wire

import "unsafe"

// Retention bounds for recycled decode storage. A decode into recycled
// storage reuses whatever capacity it already has, so storage that lives as
// long as its connection would keep the largest frame it ever decoded: one
// 8 MiB SET would pin 8 MiB until the peer hangs up. CommandBatch and
// ReplyBatch trim what they carry from one batch into the next to at most
// RetainTotal bytes, whatever MaxBulk, MaxArgs or the pipeline depth allow.
const (
	// RetainBuf is the largest single argument or bulk buffer worth
	// keeping; anything above it is released and allocated again on demand.
	// A reply's frames, a whole list, are bounded by RetainTotal instead.
	RetainBuf = 4 << 10
	// RetainTotal caps the bytes one storage slice keeps, headers
	// included — the same order as the 64 KiB read and write buffers a
	// connection holds anyway.
	RetainTotal = 64 << 10
)

const (
	sliceBytes = int(unsafe.Sizeof([]byte(nil)))
	replyBytes = int(unsafe.Sizeof(Reply{}))
)

// CommandBatch is a server connection's recycled command storage: command i
// of a batch is decoded into the header and argument buffers command i of
// an earlier batch used, so a client that keeps sending the same shapes
// costs the decoder no allocation. The zero value is an empty batch.
type CommandBatch struct {
	slots slots[[][]byte]
}

// Read decodes the next command from r into the batch's next slot, as
// ReadCommand would: framing violations return a *ProtocolError, a clean
// end of stream io.EOF. A failed Read adds no command.
func (b *CommandBatch) Read(r *Reader) error {
	s := &b.slots
	var dst [][]byte
	if n := len(s.buf); n < cap(s.buf) {
		// The decode writes the slot's buffers even if it then fails.
		dst, s.dirty = s.buf[:n+1][n], n+1
	}
	cmd, err := r.readCommandInto(dst)
	if err != nil {
		return err
	}
	s.buf = append(s.buf, cmd)
	s.dirty = len(s.buf)
	return nil
}

// Commands returns the commands read since the last Reset, in order. They
// are valid until Reset; whoever keeps an argument longer clones it.
func (b *CommandBatch) Commands() [][][]byte { return b.slots.buf }

// Reset ends the batch and keeps its storage for the next one, trimmed to
// the retention bound.
func (b *CommandBatch) Reset() { b.slots.trim(commandSize) }

// ReplyBatch is a client connection's recycled reply storage: one Reply per
// command of a pipeline, and one arena the array replies' elements are
// decoded into in order. Which command of a pipeline answers with an array
// changes from flush to flush, so element storage tied to a position would
// end up at every position. An array of bulk strings, which is what LRANGE
// and SMEMBERS answer, needs no element storage when it arrives whole: it is
// kept as the frames it arrived in. The zero value is empty storage.
type ReplyBatch struct {
	reps, elems slots[Reply]
}

// Read decodes n replies from r. They are valid until the next Read, which
// decodes into the same storage; a caller that keeps one longer copies it.
// An array of one or more bulk strings, none null, that is wholly buffered
// when its decode starts (a drained buffer is refilled first) comes back as
// KindFrames: Int is the element count and Bulk the element frames back to
// back, in AppendBulk's encoding. Any other reply, that array straddling the
// buffer's edge among them, comes back as ReadReply returns it; Expand
// gives an array's elements either way.
// Framing violations return a *ProtocolError, as ReadReply's do.
func (b *ReplyBatch) Read(r *Reader, n int) ([]Reply, error) {
	b.end()
	reps := b.reps.grow(n)

	arena := b.elems.buf
	free := arena              // empty, its capacity the arena's unused tail
	b.elems.dirty = cap(arena) // until the decode completes, any slot may be written
	arrayed := 0
	for i := range reps {
		rep := &reps[i]
		rep.Elems = free
		if err := r.readReplyInto(rep); err != nil {
			return nil, err
		}
		m := len(rep.Elems)
		arrayed += m
		if m <= cap(free) {
			free = free[m:m] // decoded in place
		} else {
			// Outgrew the tail and moved to an array of its own, leaving
			// copies of its first elements behind: lend those to no one.
			free = nil
		}
	}
	b.elems.dirty = cap(arena) - cap(free)
	if arenaMax := RetainTotal / replyBytes; arrayed > cap(arena) && cap(arena) < arenaMax {
		// Size the arena for this batch's arrays; the replies just decoded
		// keep the old one alive for as long as they are valid.
		b.elems = slots[Reply]{buf: make([]Reply, 0, min(arrayed, arenaMax))}
	}
	return reps, nil
}

// end trims what the last Read decoded into to the retention bound; the
// replies it returned are invalid from here on.
func (b *ReplyBatch) end() {
	for i := range b.reps.buf {
		b.reps.buf[i].Elems = nil // a window into the arena, counted there
	}
	b.reps.trim(replySize)
	b.elems.trim(replySize)
}

// Retained reports the bytes the reply headers and the element arena kept
// from earlier batches when the last Read trimmed them; each is at most
// RetainTotal.
func (b *ReplyBatch) Retained() (replies, elems int) { return b.reps.total, b.elems.total }

// slots is recycled decode storage with a running count of what it keeps.
// A batch decodes into the slots in order; buf[len:cap] is storage earlier
// batches left.
type slots[T any] struct {
	buf   []T
	dirty int   // slots [0, dirty) may have been decoded into since the last trim
	sizes []int // sizes[i] is what slot i kept, header included, when last counted
	total int   // the sum of sizes: the bytes buf carries, at most RetainTotal after trim
}

// grow returns the batch as n slots, growing the storage as needed.
func (s *slots[T]) grow(n int) []T {
	if cap(s.buf) < n {
		s.buf = append(s.buf[:cap(s.buf)], make([]T, n-cap(s.buf))...)
	}
	s.buf, s.dirty = s.buf[:n], n
	return s.buf
}

// trim ends a batch. It leaves the storage exactly as trimSlots would, but
// walks only the slots decoded into since the last trim, so a one-command
// batch costs one slot, not every slot a deep pipeline once opened. The
// rest are already within the bound: only a decode writes a slot, and the
// trim that last walked each one dropped its oversized buffers and counted
// what it kept.
func (s *slots[T]) trim(size func(*T) int) {
	all := s.buf[:cap(s.buf)]
	if grown := len(all) - len(s.sizes); grown > 0 {
		// Slots the storage gained since the last trim: an empty header each.
		header := int(unsafe.Sizeof(all[0]))
		for range grown {
			s.sizes = append(s.sizes, header)
		}
		s.total += grown * header
	}
	for i := range s.dirty {
		n := size(&all[i])
		s.total += n - s.sizes[i]
		s.sizes[i] = n
	}
	s.dirty = 0
	if s.total > RetainTotal {
		// Over the bound: cut where trimSlots cuts. The slots it keeps were
		// counted already, and it reports their sum.
		s.buf, s.total = trimSlots(all, size)
		s.sizes = append([]int(nil), s.sizes[:cap(s.buf)]...)
		return
	}
	s.buf = all[:0]
}

// trimSlots empties storage for the next batch and bounds what it carries
// over: size drops each slot's buffers above RetainBuf, and from the first
// slot that would take the running total past RetainTotal onwards
// everything is dropped. It walks s[:cap(s)], since storage of earlier,
// longer batches sits beyond the length. retained is the byte count of what
// was kept.
func trimSlots[T any](s []T, size func(*T) int) (kept []T, retained int) {
	all := s[:cap(s)]
	for i := range all {
		n := size(&all[i])
		if retained+n > RetainTotal {
			// A copy, so the array sized for the oversized batch goes too.
			return append(make([]T, 0, i), all[:i]...)[:0], retained
		}
		retained += n
	}
	return all[:0], retained
}

// commandSize drops a command slot's argument buffers above RetainBuf and
// returns the bytes it still keeps, its own header included.
func commandSize(cmd *[][]byte) int {
	args := (*cmd)[:cap(*cmd)]
	n := sliceBytes * (1 + len(args))
	for i, arg := range args {
		if cap(arg) > RetainBuf {
			args[i] = nil
		} else {
			n += cap(arg)
		}
	}
	return n
}

// replySize drops a reply's Bulk buffers above RetainBuf at every depth and
// returns the bytes it still reaches, itself included. A list's frames stand
// for the elements the arena would otherwise hold, so they are bounded as
// the arena is, by RetainTotal.
func replySize(r *Reply) int {
	n := replyBytes
	limit := RetainBuf
	if r.Kind == KindFrames {
		limit = RetainTotal
	}
	if cap(r.Bulk) > limit {
		r.Bulk = nil
	} else {
		n += cap(r.Bulk)
	}
	elems := r.Elems[:cap(r.Elems)]
	for i := range elems {
		n += replySize(&elems[i])
	}
	return n
}
