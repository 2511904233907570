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
// single map kind rests on: every shard-map call made while serving runs
// under the shard's lock, so however hard pipelined clients contend for a
// shard, its map sees one caller at a time. Four goroutines send Table-2-
// shaped batches, sharing keys so they contend for the same shard locks;
// afterwards no range of any shard map has promoted and no shard probe has
// recorded a lock wait. Store.Len (INFO, DBSIZE) is the one call made
// outside the locks, and it is not issued here.
func TestShardMapsStayQuiescentUnderConfinement(t *testing.T) {
	const (
		clients = 4
		rounds  = 150
		users   = 64
	)
	st := newTestStore(t, 2)
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

	for i, sh := range st.shards {
		ad := sh.obj.Adaptive()
		for r := 0; r < ad.Ranges(); r++ {
			if s := ad.RangeState(r); s != dego.AdaptiveQuiescent {
				t.Errorf("shard %d range %d is %v, want quiescent", i, r, s)
			}
		}
		if n := ad.Transitions(); n != 0 {
			t.Errorf("shard %d: %d representation transitions", i, n)
		}
		if w := sh.obj.Probe().Snapshot().LockWaits; w != 0 {
			t.Errorf("shard %d: probe recorded %d lock waits", i, w)
		}
	}
}

// TestShardMapLookupsBorrowTheirKey pins the borrowed-key contract of the
// shard map: Get and Contains read the key they are given and keep no
// reference to it, so a caller may look up through a view of a buffer it
// reuses. Every lookup here goes through an unsafe.String view of one
// scratch buffer, in the quiescent state and again with every range
// promoted; the buffer is then overwritten, and the map must still hold
// exactly the keys and values it was filled with.
func TestShardMapLookupsBorrowTheirKey(t *testing.T) {
	cfg := StoreConfig{Capacity: 256, Ranges: 4}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	reg := dego.NewRegistry(4)
	m, err := planShardMap(cfg, reg)
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
	lookUpAndOverwrite := func(phase string) {
		t.Helper()
		for k, want := range model {
			if o, ok := m.Get(view(k)); !ok || string(o.str) != want {
				t.Fatalf("%s: Get(%q) = (%v, %v), want %q", phase, k, o, ok, want)
			}
			if !m.Contains(view(k)) {
				t.Fatalf("%s: Contains(%q) = false", phase, k)
			}
			if _, ok := m.Get(view(k + ":absent")); ok || m.Contains(view(k+":absent")) {
				t.Fatalf("%s: found absent key %q", phase, k+":absent")
			}
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
			t.Fatalf("%s: Range yields %d keys, Len %d, want %d", phase, len(got), m.Len(), len(model))
		}
		for k, want := range model {
			if got[k] != want {
				t.Fatalf("%s: Range yields %q for %q, want %q", phase, got[k], k, want)
			}
		}
	}

	ad := m.Adaptive()
	for r := 0; r < ad.Ranges(); r++ {
		if s := ad.RangeState(r); s != dego.AdaptiveQuiescent {
			t.Fatalf("range %d starts %v", r, s)
		}
	}
	lookUpAndOverwrite("quiescent")
	for r := 0; r < ad.Ranges(); r++ {
		if !ad.ForcePromoteRange(r) {
			t.Fatalf("range %d did not promote", r)
		}
	}
	lookUpAndOverwrite("promoted")
}
