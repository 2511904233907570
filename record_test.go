package dego

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestRecordedMethodTraces pins what each of the 30 data methods of the six
// Adjusted* wrappers records: called once on an object built
// WithUsageRecording, it adds exactly one count under its usage.Method name
// and nothing under any other, on the side it belongs to (a write or a
// read), attributed to the calling handle's slot or, for a keyed read, which
// carries no handle, to the anonymous slot. Every handle-carrying call uses a
// handle this object has not seen, so the slot it lands on shows as one more
// writer or reader.
func TestRecordedMethodTraces(t *testing.T) {
	reg := NewRegistry(32)
	opts := []Option{On(reg), WithUsageRecording()}
	c := Must(Counter(opts...))
	m := Must(Map[int, int](opts...))
	s := Must(Set[int](opts...))
	o := Must(Ordered[int, int](opts...))
	q := Must(Queue[int](opts...))
	r := Must(Ref[int](nil, opts...))
	all := func(int, int) bool { return true }
	v := 7

	type call struct {
		method string // the Methods name the call records under
		write  bool   // recorded by RecordWrite, else RecordRead
		handle bool   // attributed to the handle's slot, else anonymous
		do     func(h *Handle)
	}
	objects := []struct {
		name   string
		advise func() (Advice, bool)
		calls  []call
	}{
		{"Counter", c.Advise, []call{
			{"Inc", true, true, func(h *Handle) { c.Inc(h) }},
			{"Add", true, true, func(h *Handle) { c.Add(h, 2) }},
			{"Get", false, true, func(h *Handle) { c.Get(h) }},
		}},
		{"Map", m.Advise, []call{
			{"Put", true, true, func(h *Handle) { m.Put(h, 1, 1) }},
			{"Get", false, false, func(*Handle) { m.Get(1) }},
			{"Remove", true, true, func(h *Handle) { m.Remove(h, 1) }},
			{"Contains", false, false, func(*Handle) { m.Contains(1) }},
			{"Len", false, false, func(*Handle) { m.Len() }},
			{"Range", false, false, func(*Handle) { m.Range(all) }},
		}},
		{"Set", s.Advise, []call{
			{"Add", true, true, func(h *Handle) { s.Add(h, 1) }},
			{"Remove", true, true, func(h *Handle) { s.Remove(h, 1) }},
			{"Contains", false, false, func(*Handle) { s.Contains(1) }},
			{"Len", false, false, func(*Handle) { s.Len() }},
			{"Range", false, false, func(*Handle) { s.Range(func(int) bool { return true }) }},
		}},
		{"Ordered", o.Advise, []call{
			{"Put", true, true, func(h *Handle) { o.Put(h, 1, 1) }},
			{"Get", false, false, func(*Handle) { o.Get(1) }},
			{"Remove", true, true, func(h *Handle) { o.Remove(h, 1) }},
			{"Contains", false, false, func(*Handle) { o.Contains(1) }},
			{"Len", false, false, func(*Handle) { o.Len() }},
			{"Range", false, false, func(*Handle) { o.Range(all) }},
			{"RangeFrom", false, false, func(*Handle) { o.RangeFrom(0, all) }},
			{"RangeFrom", false, false, func(*Handle) { o.RangeBetween(0, 2, all) }},
		}},
		{"Queue", q.Advise, []call{
			{"Offer", true, true, func(h *Handle) { q.Offer(h, 1) }},
			{"Poll", false, true, func(h *Handle) { q.Poll(h) }},
			{"Peek", false, true, func(h *Handle) { q.Peek(h) }},
			{"IsEmpty", false, true, func(h *Handle) { q.IsEmpty(h) }},
			{"Drain", false, true, func(h *Handle) { q.Drain(h, make([]int, 4), 4) }},
		}},
		{"Ref", r.Advise, []call{
			{"Get", false, true, func(h *Handle) { r.Get(h) }},
			{"Set", true, true, func(h *Handle) { _ = r.Set(h, &v) }},
			{"Update", true, true, func(h *Handle) { _ = r.Update(h, func(*int) *int { return &v }) }},
		}},
	}

	methods := 0
	for _, obj := range objects {
		trace := func() UsageTrace {
			a, ok := obj.advise()
			if !ok {
				t.Fatalf("%s: Advise reports no recorder", obj.name)
			}
			return a.Trace
		}
		for _, call := range obj.calls {
			methods++
			h := reg.MustRegister()
			before := trace()
			call.do(h)
			after := trace()

			for name, n := range after.Methods {
				want := before.Methods[name]
				if name == call.method {
					want++
				}
				if n != want {
					t.Errorf("%s %s: Methods[%q] %d → %d", obj.name, call.method, name, before.Methods[name], n)
				}
			}
			if after.Methods[call.method] == 0 {
				t.Errorf("%s %s: recorded nothing under %q", obj.name, call.method, call.method)
			}

			// The side the call landed on, and the slot within it.
			dWrites, dReads := after.Writes-before.Writes, after.Reads-before.Reads
			dAnon := after.AnonWrites - before.AnonWrites + after.AnonReads - before.AnonReads
			dWriters, dReaders := after.Writers-before.Writers, after.Readers-before.Readers
			wantWrites, wantReads := uint64(0), uint64(0)
			if call.write {
				wantWrites = 1
			} else {
				wantReads = 1
			}
			wantAnon, wantWriters, wantReaders := uint64(1), 0, 0
			if call.handle {
				wantAnon = 0
				wantWriters, wantReaders = int(wantWrites), int(wantReads)
			}
			if dWrites != wantWrites || dReads != wantReads {
				t.Errorf("%s %s: writes +%d reads +%d, want +%d +%d", obj.name, call.method, dWrites, dReads, wantWrites, wantReads)
			}
			if dAnon != wantAnon || dWriters != wantWriters || dReaders != wantReaders {
				t.Errorf("%s %s: anonymous +%d writers +%d readers +%d, want +%d +%d +%d",
					obj.name, call.method, dAnon, dWriters, dReaders, wantAnon, wantWriters, wantReaders)
			}
		}
	}
	if methods != 30 {
		t.Errorf("the table calls %d data methods, want all 30", methods)
	}
}

// TestAccessorsSeeThroughRecording builds every row of every datatype twice,
// unrecorded and recorded, and checks that the accessors answer the same
// through the recording decorator: the same plan, a representation of the
// same dynamic type behind the decorator, Adaptive non-nil exactly on the
// adaptive map row, and Advise available exactly when recorded.
func TestAccessorsSeeThroughRecording(t *testing.T) {
	reg := NewRegistry(8)
	type view struct {
		plan     Plan
		rep      any
		adaptive bool // Adaptive() is non-nil
		advised  bool // Advise() reports a recorder
	}
	datatypes := []struct {
		rows  []repRow
		decls [][]Option
		build func(opts []Option) view
	}{
		{counterRows, [][]Option{
			{Blind(), SingleReader()}, {Blind(), CommutingWriters(), Capacity(8)}, {Blind()}, {},
		}, func(opts []Option) view {
			c := Must(Counter(opts...))
			v := view{plan: c.Plan(), rep: unwrap(c.rep)}
			_, v.advised = c.Advise()
			return v
		}},
		{mapRows, [][]Option{
			{SingleWriter(), Capacity(16)}, {Capacity(16)}, {CommutingWriters(), Adaptive()},
			{CommutingWriters()}, {SingleWriter()}, {},
		}, func(opts []Option) view {
			m := Must(Map[int, int](opts...))
			v := view{plan: m.Plan(), rep: unwrap(m.rep), adaptive: m.Adaptive() != nil}
			_, v.advised = m.Advise()
			return v
		}},
		{setRows, [][]Option{
			{SingleWriter(), Capacity(16)}, {Capacity(16)}, {CommutingWriters()}, {SingleWriter()}, {},
		}, func(opts []Option) view {
			s := Must(Set[int](opts...))
			v := view{plan: s.Plan(), rep: unwrap(s.rep)}
			_, v.advised = s.Advise()
			return v
		}},
		{orderedRows, [][]Option{
			{CommutingWriters()}, {SingleWriter()}, {},
		}, func(opts []Option) view {
			o := Must(Ordered[int, int](opts...))
			v := view{plan: o.Plan(), rep: unwrap(o.rep)}
			_, v.advised = o.Advise()
			return v
		}},
		{queueRows, [][]Option{{SingleReader()}, {}}, func(opts []Option) view {
			q := Must(Queue[int](opts...))
			v := view{plan: q.Plan(), rep: unwrap(q.rep)}
			_, v.advised = q.Advise()
			return v
		}},
		{refRows, [][]Option{{WriteOnce()}, {SingleWriter()}, {}}, func(opts []Option) view {
			r := Must(Ref[int](nil, opts...))
			v := view{plan: r.Plan(), rep: unwrap(r.rep)}
			_, v.advised = r.Advise()
			return v
		}},
	}
	for _, dt := range datatypes {
		if len(dt.decls) != len(dt.rows) {
			t.Fatalf("%d declarations for %d rows", len(dt.decls), len(dt.rows))
		}
		for i, decl := range dt.decls {
			opts := append([]Option{On(reg)}, decl...)
			plain := dt.build(opts)
			recorded := dt.build(append(opts, WithUsageRecording()))
			name := plain.plan.String()
			if row := dt.rows[i]; plain.plan.Rep != row.name {
				t.Fatalf("declaration %d planned %s, want row %s", i, name, row.name)
			}
			if recorded.plan != plain.plan {
				t.Errorf("%s: recorded plan %v", name, recorded.plan)
			}
			if a, b := fmt.Sprintf("%T", recorded.rep), fmt.Sprintf("%T", plain.rep); a != b {
				t.Errorf("%s: recorded representation is %s, unrecorded %s", name, a, b)
			}
			for _, v := range []view{plain, recorded} {
				if v.adaptive != v.plan.Adaptive {
					t.Errorf("%s (recorded %v): Adaptive() non-nil %v, plan adaptive %v", name, v.advised, v.adaptive, v.plan.Adaptive)
				}
			}
			if plain.advised || !recorded.advised {
				t.Errorf("%s: Advise available unrecorded %v, recorded %v", name, plain.advised, recorded.advised)
			}
		}
	}
}

// TestConcurrentRecording runs four goroutines through recorded Map, Set,
// Queue and Counter wrappers while a fifth calls Advise() on all four in a
// loop, as a program replaying traffic while it is asked for advice does.
// No call may be lost: the traces after the run are exact. `make race` runs
// it under the detector.
func TestConcurrentRecording(t *testing.T) {
	const workers, rounds = 4, 256
	const n = workers * rounds
	reg := NewRegistry(workers)
	opts := []Option{On(reg), WithUsageRecording()}
	m := Must(Map[int, int](opts...))
	s := Must(Set[int](opts...))
	q := Must(Queue[int](opts...))
	c := Must(Counter(opts...))
	advisers := []func() (Advice, bool){m.Advise, s.Advise, q.Advise, c.Advise}

	done := make(chan struct{})
	var advising sync.WaitGroup
	advising.Add(1)
	go func() {
		defer advising.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, advise := range advisers {
				if _, ok := advise(); !ok {
					t.Error("Advise reports no recorder")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		h := reg.MustRegister()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := g*rounds + i
				m.Put(h, k, i)
				m.Get(k)
				s.Add(h, k)
				s.Contains(k)
				q.Offer(h, k)
				q.Poll(h)
				c.Inc(h)
				c.Get(h)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	advising.Wait()

	// Keyed objects: every worker writes its own keys, and keyed reads are
	// anonymous. Unkeyed ones: every write lands on the one key, and every
	// read follows the reader's own write.
	keyed := func(write, read string) UsageTrace {
		return UsageTrace{Methods: map[string]uint64{write: n, read: n}, Writes: n, Reads: n,
			Writers: workers, AnonReads: n, Keys: n}
	}
	unkeyed := func(write, read string) UsageTrace {
		return UsageTrace{Methods: map[string]uint64{write: n, read: n}, Writes: n, Reads: n,
			Writers: workers, Readers: workers, Keys: 1, SharedKeys: 1, Overwrites: n - 1, ReadYourWrites: n}
	}
	for i, want := range []UsageTrace{keyed("Put", "Get"), keyed("Add", "Contains"), unkeyed("Offer", "Poll"), unkeyed("Inc", "Get")} {
		a, _ := advisers[i]()
		if !reflect.DeepEqual(a.Trace, want) {
			t.Errorf("trace %d:\n got %+v\nwant %+v", i, a.Trace, want)
		}
	}
}
