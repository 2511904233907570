package server

// list is a list key's body. Entries sit newest-last in buf[off:], so the
// head redis indexes from (LRANGE's index 0, where LPUSH inserts) is the
// end of the slice: a push is an amortised append and a trim a reslice,
// where a head-first layout copies the whole list on both. buf[:off] are
// slots LTRIM dropped from the old end, kept nil and reclaimed in place
// once they outnumber the live entries, so a timeline that is pushed and
// trimmed forever settles into one backing array.
type list struct {
	buf [][]byte
	off int
}

func (l *list) len() int { return len(l.buf) - l.off }

// at returns the entry at head-first index i, 0 being the latest push.
func (l *list) at(i int) []byte { return l.buf[len(l.buf)-1-i] }

// push makes v the new head. v is retained.
func (l *list) push(v []byte) { l.buf = append(l.buf, v) }

// keep trims the list to head-first indexes start..stop inclusive, which
// the caller has clamped to 0 <= start <= stop < len. Dropped slots are
// cleared so the list stops pinning their entries.
func (l *list) keep(start, stop int) {
	lo, hi := len(l.buf)-1-stop, len(l.buf)-start
	clear(l.buf[l.off:lo])
	clear(l.buf[hi:])
	l.buf, l.off = l.buf[:hi], lo
	if l.off > len(l.buf)/2 {
		n := copy(l.buf, l.buf[l.off:])
		clear(l.buf[n:])
		l.buf, l.off = l.buf[:n], 0
	}
}
