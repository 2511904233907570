package server

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego"
)

// TestShardMapsStayQuiescentUnderConfinement pins the premise the store's
// single-writer declaration rests on: every shard-map write made while
// serving comes from the shard's one handle, whoever holds the lock. Each
// shard map is rebuilt checked (dego.Checked), so its SWMR guard panics the
// moment a second handle writes, and the shard counts the recovered panic.
// Four goroutines then send Table-2-shaped batches, sharing keys so they
// contend for the same shard locks; afterwards no unit has panicked, and the
// recorded usage of every shard advises exactly the single-writer map the
// shard already plans.
func TestShardMapsStayQuiescentUnderConfinement(t *testing.T) {
	const (
		clients = 4
		rounds  = 150
		users   = 64
	)
	st, err := NewStore(StoreConfig{Shards: 2, Capacity: 256, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, sh := range st.shards {
		if sh.obj, err = dego.Map[string, *object](append(shardMapOptions(st.cfg, st.reg), dego.Checked())...); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var batch [][][]byte
				for i := 0; i < 4; i++ {
					u := strconv.Itoa((g + r*4 + i) % users)
					batch = append(batch,
						cmd("SET", "profile:"+u, "p"+strconv.Itoa(r)),
						cmd("GET", "profile:"+u),
						cmd("INCR", "stat:posts"),
						cmd("SADD", "followers:"+u, strconv.Itoa(g)),
						cmd("LPUSH", "timeline:"+u, "tweet"),
						cmd("LTRIM", "timeline:"+u, "0", "49"),
						cmd("LRANGE", "timeline:"+u, "0", "49"),
						cmd("ZADD", "posts:"+u, strconv.Itoa(r), "t"+strconv.Itoa(r)),
					)
				}
				for i, rep := range st.ExecBatch(batch) {
					if rep.IsError() {
						errs <- fmt.Errorf("client %d round %d: %q answered %v", g, r, batch[i], rep)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantBulk(t, st.Exec(cmd("GET", "stat:posts")), strconv.Itoa(clients*rounds*4))
	if n := st.PanicCount(); n != 0 {
		t.Fatalf("%d shard executions panicked; last: %v", n, st.LastPanic())
	}

	advs, ok := st.Advise()
	if !ok {
		t.Fatal("Advise: recording is off")
	}
	for i, a := range advs {
		if !a.SingleWriter || !a.MatchesCurrent() {
			t.Errorf("shard %d: advice %s does not match the planned %s: %+v", i, a.Declared(), st.Plan().Declared(), a)
		}
	}

	// The guard is armed: a write through any other handle panics.
	h := st.reg.MustRegister()
	defer h.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second handle wrote a checked shard map without a panic")
		}
	}()
	st.shards[0].obj.Put(h, "intruder", &object{kind: objString})
}

// TestShardMapLookupsBorrowTheirKey pins the borrowed-key contract of the
// shard map: Get, Contains, Remove and a present-key Put read the key they
// are given and keep no reference to it, so the shard may pass a view of a
// buffer its connection reuses. Every such call here goes through an
// unsafe.String view of one scratch buffer; the buffer is then overwritten,
// and the map must hold exactly the keys and values of the model.
func TestShardMapLookupsBorrowTheirKey(t *testing.T) {
	reg := dego.NewRegistry(4)
	m, err := dego.Map[string, *object](shardMapOptions(StoreConfig{Capacity: 256}, reg)...)
	if err != nil {
		t.Fatal(err)
	}
	h := reg.MustRegister()
	defer h.Release()
	model := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key:%d", i), fmt.Sprintf("value:%d", i)
		m.Put(h, k, &object{kind: objString, str: []byte(v)})
		model[k] = v
	}

	scratch := make([]byte, 0, 64)
	view := func(s string) string {
		scratch = append(scratch[:0], s...)
		return unsafe.String(unsafe.SliceData(scratch), len(scratch))
	}
	i := 0
	for k, want := range model {
		if o, ok := m.Get(view(k)); !ok || string(o.str) != want {
			t.Fatalf("Get(%q) = (%v, %v), want %q", k, o, ok, want)
		}
		if !m.Contains(view(k)) {
			t.Fatalf("Contains(%q) = false", k)
		}
		if _, ok := m.Get(view(k + ":absent")); ok || m.Contains(view(k+":absent")) {
			t.Fatalf("found absent key %q", k+":absent")
		}
		if m.Remove(h, view(k+":absent")) {
			t.Fatalf("removed absent key %q", k+":absent")
		}
		switch i % 3 {
		case 0:
			model[k] = want + ":updated"
			m.Put(h, view(k), &object{kind: objString, str: []byte(model[k])})
		case 1:
			if !m.Remove(h, view(k)) {
				t.Fatalf("Remove(%q) = false", k)
			}
			delete(model, k)
		}
		i++
	}
	for i := range scratch[:cap(scratch)] {
		scratch[:cap(scratch)][i] = '#'
	}
	got := map[string]string{}
	m.Range(func(k string, o *object) bool {
		got[k] = string(o.str)
		return true
	})
	if len(got) != len(model) || m.Len() != len(model) {
		t.Fatalf("Range yields %d keys, Len %d, want %d", len(got), m.Len(), len(model))
	}
	for k, want := range model {
		if got[k] != want {
			t.Fatalf("Range yields %q for %q, want %q", got[k], k, want)
		}
	}
}
