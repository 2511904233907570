package server

// INFO and DEBUG ADVISE: the introspection verbs. INFO's sections must
// reflect the store's real shape and the serving layer's counters when a
// Server is attached; DEBUG ADVISE must run the tuning advisor over every
// shard's recorded usage and rediscover the single-writer structure shard
// confinement guarantees.

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/wire"
)

func infoLines(t *testing.T, rep wire.Reply) map[string]string {
	t.Helper()
	if rep.Kind != wire.KindBulk {
		t.Fatalf("INFO reply = %v, want bulk", rep)
	}
	out := map[string]string{}
	for _, line := range strings.Split(rep.Text(), "\r\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("INFO line %q has no key:value shape", line)
		}
		out[k] = v
	}
	return out
}

func TestInfoStoreSections(t *testing.T) {
	st := newTestStore(t, 3)
	wantOK(t, st.Exec(cmd("SET", "a", "1")))
	wantOK(t, st.Exec(cmd("SET", "b", "2")))

	got := infoLines(t, st.Exec(cmd("INFO")))
	if got["store_kind"] != StoreAdaptive {
		t.Fatalf("store_kind = %q, want %q", got["store_kind"], StoreAdaptive)
	}
	if got["shard_map"] != "SWMRMap (M2, SWMR)" {
		t.Fatalf("shard_map = %q, want the single-writer map", got["shard_map"])
	}
	if got["shards"] != "3" {
		t.Fatalf("shards = %q, want 3", got["shards"])
	}
	if got["keys"] != "2" {
		t.Fatalf("keys = %q, want 2", got["keys"])
	}
	if got["usage_recording"] != "0" {
		t.Fatalf("usage_recording = %q, want 0", got["usage_recording"])
	}
	// Per-shard op counts: the two SETs executed somewhere.
	total := 0
	for i := 0; i < 3; i++ {
		line, ok := got[fmt.Sprintf("shard%d", i)]
		if !ok {
			t.Fatalf("INFO missing shard%d line: %v", i, got)
		}
		var ops, keys int
		if _, err := fmt.Sscanf(line, "ops=%d,keys=%d", &ops, &keys); err != nil {
			t.Fatalf("shard line %q: %v", line, err)
		}
		total += ops
	}
	if total < 2 {
		t.Fatalf("summed shard ops = %d, want >= 2", total)
	}

	// INFO with a section argument is accepted; three args is an arity error.
	if rep := st.Exec(cmd("INFO", "server")); rep.Kind != wire.KindBulk {
		t.Fatalf("INFO server = %v, want bulk", rep)
	}
	if rep := st.Exec(cmd("INFO", "a", "b")); !rep.IsError() {
		t.Fatalf("INFO a b = %v, want arity error", rep)
	}
}

func TestInfoCarriesServerStats(t *testing.T) {
	srv, err := New(Config{Store: StoreConfig{Shards: 2, Capacity: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := net.DialTCP("tcp", nil, srv.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, r := wire.NewWriter(c), wire.NewReader(c)
	if err := w.WriteCommand(cmd("INFO")...); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	got := infoLines(t, rep)
	if got["connected_clients"] != "1" {
		t.Fatalf("connected_clients = %q, want 1", got["connected_clients"])
	}
	if got["total_connections_received"] != "1" {
		t.Fatalf("total_connections_received = %q, want 1", got["total_connections_received"])
	}
}

func TestDebugAdviseRequiresRecording(t *testing.T) {
	st := newTestStore(t, 2)
	rep := st.Exec(cmd("DEBUG", "ADVISE"))
	if !rep.IsError() || !strings.Contains(rep.Text(), "recording is off") {
		t.Fatalf("DEBUG ADVISE without recording = %v, want recording-off error", rep)
	}
}

func TestDebugAdviseRediscoversShardConfinement(t *testing.T) {
	t.Run(StoreAdaptive, testDebugAdviseRediscoversShardConfinement)
}

func testDebugAdviseRediscoversShardConfinement(t *testing.T) {
	st, err := NewStore(StoreConfig{Shards: 2, Kind: StoreAdaptive, Capacity: 256, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Recording() {
		t.Fatal("Recording() = false on a Record store")
	}
	for i := 0; i < 64; i++ {
		wantOK(t, st.Exec(cmd("SET", "k"+string(rune('a'+i%26))+string(rune('0'+i/26)), "v")))
	}

	rep := st.Exec(cmd("DEBUG", "ADVISE"))
	if rep.Kind != wire.KindBulk {
		t.Fatalf("DEBUG ADVISE = %v, want bulk JSON", rep)
	}
	var advs []dego.Advice
	if err := json.Unmarshal(rep.Bulk, &advs); err != nil {
		t.Fatalf("DEBUG ADVISE reply is not advice JSON: %v\n%s", err, rep.Bulk)
	}
	if len(advs) != 2 {
		t.Fatalf("got %d advice entries, want one per shard (2)", len(advs))
	}
	for i, a := range advs {
		// Each shard map has exactly one writer at a time — whoever holds
		// the shard's lock, presenting the shard's one handle. That is the
		// structure the advisor must rediscover from traffic, and the
		// declaration the store already plans with.
		if !a.SingleWriter {
			t.Fatalf("shard %d: advisor missed the single writer: %+v", i, a)
		}
		if !a.MatchesCurrent() {
			t.Fatalf("shard %d: advice %s, plan %s: want them to match", i, a.Declared(), st.Plan().Declared())
		}
		if !a.Certified {
			t.Fatalf("shard %d: advice not certified: %s", i, a.CertError)
		}
	}
}
