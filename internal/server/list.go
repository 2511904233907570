package server

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/adjusted-objects/dego/internal/wire"
)

// maxListBytes bounds a list's buffer, frames and index together: the index
// holds uint32 offsets, and a length must fit an int.
const maxListBytes = min(math.MaxUint32, math.MaxInt)

// list is a list key's body, kept the way LRANGE sends it. Each entry is its
// RESP bulk frame ($<n>\r\n<v>\r\n), and the frames sit head first and
// contiguous in buf[lo:hi], so any window is one slice of buf: LRANGE answers
// with it as a wire.Frames reply, and the Writer sends it with one copy.
//
// The same buffer holds the index: each entry's start offset, a
// little-endian uint32, tail first in buf[ilo:ihi], so the head's comes last.
// The two share the gap buf[ihi:lo]: a push writes its frame at the top of the
// gap and its start at the bottom, and a trim of the tail moves hi and ilo.
//
// Bytes once written into a frame are never rewritten. A TCP reply is
// encoded after the shard's lock is dropped, so another batch may push, trim
// or delete the key while a window is still being sent. A push writes only
// below lo, into bytes no frame ever held; when the gap is too small, and
// when a trim drops head frames (whose bytes the next push would otherwise
// overwrite), the live frames move into a fresh buffer and the old one is
// left to the replies still holding it.
type list struct {
	buf              []byte
	ilo, ihi, lo, hi uint32
}

func (l *list) len() int { return int(l.ihi-l.ilo) / 4 }

// start returns the offset of the frame at head-first index i, 0 being the
// latest push.
func (l *list) start(i int) uint32 {
	return binary.LittleEndian.Uint32(l.buf[int(l.ihi)-4*(i+1):])
}

// end returns the offset just past the frame at head-first index i.
func (l *list) end(i int) uint32 {
	if i == l.len()-1 {
		return l.hi
	}
	return l.start(i + 1)
}

// frames returns the frames of head-first indexes start..stop inclusive,
// which the caller has clamped to 0 <= start <= stop < len. The slice is
// capped, so an append to it cannot reach the buffer.
func (l *list) frames(start, stop int) []byte {
	from, to := l.start(start), l.end(stop)
	return l.buf[from:to:to]
}

// push makes each of vs the new head in turn, so the last ends up at index
// 0. It copies vs. ok is false, and the list unchanged, when the buffer
// would outgrow maxListBytes.
func (l *list) push(vs [][]byte) (ok bool) {
	need := 4 * len(vs)
	for _, v := range vs {
		need += wire.BulkLen(len(v))
	}
	if live := int(l.hi-l.lo) + int(l.ihi-l.ilo); need > maxListBytes-live {
		return false
	}
	if need > int(l.lo-l.ihi) {
		l.move(need)
	}
	for _, v := range vs {
		n := uint32(wire.BulkLen(len(v)))
		l.lo -= n
		wire.AppendBulk(l.buf[l.lo:l.lo:l.lo+n], v)
		binary.LittleEndian.PutUint32(l.buf[l.ihi:], l.lo)
		l.ihi += 4
	}
	return true
}

// keep trims the list to head-first indexes start..stop inclusive, which
// the caller has clamped to 0 <= start <= stop < len. Dropping the tail only
// moves hi and ilo; dropping head frames moves the list to a fresh buffer.
func (l *list) keep(start, stop int) {
	l.hi = l.end(stop)
	l.ilo = l.ihi - uint32(4*(stop+1))
	if start > 0 {
		l.lo = l.start(start)
		l.ihi -= uint32(4 * start)
		l.move(0)
	}
}

// move copies the live frames to the top of a fresh buffer, twice the size
// of the live bytes plus need, and the index to its bottom.
func (l *list) move(need int) {
	frames, index := l.hi-l.lo, l.ihi-l.ilo
	buf := slices.Grow([]byte(nil), min(2*(int(frames+index)+need), maxListBytes))
	buf = buf[:min(cap(buf), maxListBytes)]
	hi := uint32(len(buf))
	lo := hi - frames
	copy(buf[lo:], l.buf[l.lo:l.hi])
	shift := lo - l.lo // modulo 2^32: the shifted offsets are in range
	for i := uint32(0); i < index; i += 4 {
		binary.LittleEndian.PutUint32(buf[i:], binary.LittleEndian.Uint32(l.buf[l.ilo+i:])+shift)
	}
	l.buf, l.ilo, l.ihi, l.lo, l.hi = buf, 0, index, lo, hi
}
