// Server: the full client/protocol/store stack end to end, in one process.
//
// The demo boots a dego-server on an ephemeral loopback port — RESP subset
// front, a goroutine per connection, the keyspace split across per-core
// shards, each a profile-planned single-writer map behind one lock — then
// plays both sides of the wire:
//
//  1. a raw wire client pipelines a small social-app session (profile SET,
//     INCR counter, follower SADD, timeline LPUSH/LRANGE) in one flush and
//     reads the replies back in order;
//  2. the retwis network client replays a slice of the Table-2 workload
//     against the same server — generated ops become RESP pipelines, post
//     fanout is resolved client-side from the deterministic social graph;
//  3. the shard plans are printed, showing what the profile planner chose
//     for the keyspace maps (the SingleWriter declaration the
//     shard-confinement invariant certifies).
//
// Run it:
//
//	go run ./examples/server
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
)

func main() {
	srv, err := server.New(server.Config{
		Store: server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()
	fmt.Printf("server: listening on %s, 2 shards\n\n", addr)

	// --- 1. raw pipelined session over the wire -------------------------
	kv, err := retwis.DialKV(addr)
	if err != nil {
		log.Fatal(err)
	}
	session := [][]string{
		{"SET", "profile:1", "ada"},
		{"INCR", "stat:posts"},
		{"SADD", "followers:1", "2", "3"},
		{"LPUSH", "timeline:2", "1:1"},
		{"LRANGE", "timeline:2", "0", "-1"},
		{"GET", "profile:1"},
	}
	cmds := make([][][]byte, len(session))
	for i, s := range session {
		args := make([][]byte, len(s))
		for j, a := range s {
			args[j] = []byte(a)
		}
		cmds[i] = args
	}
	reps, err := kv.ExecPipe(cmds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one pipeline flush, replies in order:")
	for i, s := range session {
		fmt.Printf("  %-32s -> %s\n", strings.Join(s, " "), reps[i])
	}
	kv.Close()

	// --- 2. a slice of the retwis workload over the wire ----------------
	p := retwis.DefaultParams()
	p.Users = 500
	p.Threads = 1
	p.MaxDegree = 16
	graph := retwis.BuildGraph(p)
	wkv, err := retwis.DialKV(addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := retwis.SeedKV(wkv, p, graph); err != nil {
		log.Fatal(err)
	}
	cl := retwis.NewNetClient(wkv, graph)
	gen := retwis.NewGenerator(0, p, usersOf(p), false)
	opCount, cmdCount := 0, 0
	for batch := 0; batch < 25; batch++ {
		for i := 0; i < 8; i++ {
			cl.AppendOp(gen.Next())
			opCount++
		}
		cmdCount += cl.Pending()
		if err := cl.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	cl.Close()
	fmt.Printf("\nretwis over the wire: %d ops -> %d commands, store now holds %d keys\n",
		opCount, cmdCount, srv.Store().Len())

	// --- 3. what the planner picked for the shards ----------------------
	fmt.Printf("\nshard plan: %s\n", srv.Store().Plan())
}

func usersOf(p retwis.Params) []retwis.UserID {
	mine := make([]retwis.UserID, p.Users)
	for u := range mine {
		mine[u] = retwis.UserID(u)
	}
	return mine
}
