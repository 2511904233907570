package wire

import "unsafe"

// Retention bounds for recycled decode destinations. ReadCommandInto and
// ReadReplyInto reuse whatever capacity a destination already has, so a
// destination that lives as long as its connection would keep the largest
// frame it ever decoded: one 8 MiB SET would pin 8 MiB until the peer hangs
// up. The owner of a destination slice passes it through TrimCommands or
// TrimReplies between uses, which keeps retained capacity at or below
// RetainTotal whatever MaxBulk, MaxArgs or the pipeline depth allow.
const (
	// RetainBuf is the largest single argument or bulk buffer worth
	// keeping; anything above it is released and allocated again on demand.
	RetainBuf = 4 << 10
	// RetainTotal caps the bytes one destination slice keeps, headers
	// included — the same order as the 64 KiB read and write buffers a
	// connection holds anyway.
	RetainTotal = 64 << 10
)

const (
	sliceBytes = int(unsafe.Sizeof([]byte(nil)))
	replyBytes = int(unsafe.Sizeof(Reply{}))
)

// TrimCommands empties a slice of ReadCommandInto results for the next
// round of decodes and bounds the storage it carries over: argument buffers
// above RetainBuf are dropped, and from the first command that would take
// the running total past RetainTotal onwards everything is dropped. It walks
// cmds[:cap(cmds)], since storage of earlier, longer rounds sits beyond the
// length. retained is the byte count of what was kept.
func TrimCommands(cmds [][][]byte) (kept [][][]byte, retained int) {
	all := cmds[:cap(cmds)]
	for i, cmd := range all {
		cmd = cmd[:cap(cmd)]
		n := sliceBytes * (1 + len(cmd))
		for j, arg := range cmd {
			if cap(arg) > RetainBuf {
				cmd[j] = nil
			} else {
				n += cap(arg)
			}
		}
		if retained+n > RetainTotal {
			// A copy, so the array sized for the oversized round goes too.
			return append(make([][][]byte, 0, i), all[:i]...)[:0], retained
		}
		retained += n
	}
	return all[:0], retained
}

// TrimReplies is TrimCommands for a slice of ReadReplyInto destinations:
// Bulk buffers above RetainBuf are dropped at every depth, and the replies
// from the first one that would exceed RetainTotal onwards are dropped whole.
// It returns reps[:0] over the kept storage.
func TrimReplies(reps []Reply) (kept []Reply, retained int) {
	all := reps[:cap(reps)]
	for i := range all {
		n := replyBytes + trimReply(&all[i])
		if retained+n > RetainTotal {
			return append(make([]Reply, 0, i), all[:i]...)[:0], retained
		}
		retained += n
	}
	return all[:0], retained
}

// trimReply drops r's oversized Bulk buffers and returns the bytes of
// storage r still reaches, not counting r itself.
func trimReply(r *Reply) int {
	n := 0
	if cap(r.Bulk) > RetainBuf {
		r.Bulk = nil
	} else {
		n += cap(r.Bulk)
	}
	elems := r.Elems[:cap(r.Elems)]
	for i := range elems {
		n += replyBytes + trimReply(&elems[i])
	}
	return n
}
