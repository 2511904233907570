// Command dego-server serves the RESP subset of docs/PROTOCOL.md over TCP,
// backed by the sharded, profile-planned store of internal/server: one
// single-writer (M2, SWMR) map per shard.
// Stock redis clients can talk to it:
//
//	dego-server -addr :6399 &
//	redis-cli -p 6399 SET greeting hello
//	redis-cli -p 6399 GET greeting
//
// Flags:
//
//	-addr      listen address (default 127.0.0.1:6399; :0 picks a free port)
//	-shards    keyspace shards, each a slice behind its own lock (default GOMAXPROCS)
//	-capacity  per-shard capacity hint for the planner
//	-record    attach usage recorders to the shard maps, enabling the
//	           DEBUG ADVISE tuning-advisor verb (a profiling mode)
//	-maxconns  cap on concurrent connections; one over the cap is answered
//	           "-ERR max clients reached" and closed (0 = unlimited)
//	-timeout   per-connection deadline on each read and each write (0 = none)
//	-drain     graceful-shutdown budget on SIGINT/SIGTERM: in-flight pipeline
//	           batches finish and flush within this window (0 = hard close)
//	-smoke     bind an ephemeral port, run a scripted self-session, exit
//
// -smoke exists for CI: the container images have no redis-cli, so the
// server proves the wire path with its own client — boot, connect over
// TCP, run a session that sends every data verb, verify every reply, check
// INFO (and, with -record, DEBUG ADVISE), shut down.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dego-server:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("dego-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "TCP listen address")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "keyspace shards, each behind its own lock")
	capacity := fs.Int("capacity", 0, "per-shard capacity hint (0 = default)")
	record := fs.Bool("record", false, "attach usage recorders to the shard maps (DEBUG ADVISE)")
	maxconns := fs.Int("maxconns", 0, "max concurrent connections (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "per-connection deadline on each read and each write (0 = none)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain budget (0 = hard close)")
	smoke := fs.Bool("smoke", false, "self-test: ephemeral port, scripted session, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		Addr: *addr,
		Store: server.StoreConfig{
			Shards:   *shards,
			Capacity: *capacity,
			Record:   *record,
		},
		MaxConns: *maxconns,
		Timeout:  *timeout,
	}
	if *smoke {
		cfg.Addr = "127.0.0.1:0"
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(out, "dego-server: listening on %s (%d shards, %s store)\n",
		srv.Addr(), srv.Store().Shards(), srv.Store().Kind())

	if *smoke {
		defer srv.Close()
		go srv.Serve()
		return smokeSession(srv.Addr().String(), srv.Store().Shards(), *record, out)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if *drain > 0 {
			fmt.Fprintf(out, "dego-server: draining (up to %v)\n", *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(out, "dego-server:", err)
			}
			return
		}
		fmt.Fprintln(out, "dego-server: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(); err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(out, "dego-server: closed (%d conns served, %d rejected, %d timeouts, %d panics recovered)\n",
		st.Accepted, st.Rejected, st.IdleTimeouts, st.Panics)
	return nil
}

// smokeKeys is how many keys the scripted session leaves behind: visits,
// community, timeline:1 and posts:1.
const smokeKeys = 4

// smokeSession drives the scripted self-session: one pipelined connection
// sending every data verb, each reply checked against its expectation.
// A second flush asks INFO, which must name the served store kind and shard
// map and count the keys the session left, and on a recording server DEBUG
// ADVISE, which must certify on every shard the single-writer map the store
// already plans. (INFO answers at planning
// time, so in the first flush it would not see that flush's writes.)
func smokeSession(addr string, shards int, record bool, out *os.File) error {
	kv, err := retwis.DialKV(addr)
	if err != nil {
		return err
	}
	defer kv.Close()

	session := []struct {
		cmd  []string
		want string // redis-cli-style rendering of the expected reply
	}{
		{[]string{"PING"}, "PONG"},
		{[]string{"SET", "greeting", "hello"}, "OK"},
		{[]string{"GET", "greeting"}, `"hello"`},
		{[]string{"INCR", "visits"}, "(integer) 1"},
		{[]string{"INCR", "visits"}, "(integer) 2"},
		{[]string{"EXISTS", "greeting", "visits", "nope"}, "(integer) 2"},
		{[]string{"SADD", "community", "1", "2", "3"}, "(integer) 3"},
		{[]string{"SREM", "community", "3", "4"}, "(integer) 1"},
		{[]string{"SMEMBERS", "community"}, `["1" "2"]`},
		{[]string{"LPUSH", "timeline:1", "c", "b", "a"}, "(integer) 3"},
		{[]string{"LTRIM", "timeline:1", "0", "1"}, "OK"},
		{[]string{"LRANGE", "timeline:1", "0", "-1"}, `["a" "b"]`},
		{[]string{"ZADD", "posts:1", "0", "zeroth", "1", "first", "2", "second"}, "(integer) 3"},
		{[]string{"ZREMRANGEBYSCORE", "posts:1", "-inf", "(1"}, "(integer) 1"},
		{[]string{"ZRANGEBYSCORE", "posts:1", "-inf", "+inf"}, `["first" "second"]`},
		{[]string{"DEL", "greeting"}, "(integer) 1"},
		{[]string{"GET", "greeting"}, "(nil)"},
	}

	cmds := make([][][]byte, len(session))
	for i, s := range session {
		args := make([][]byte, len(s.cmd))
		for j, a := range s.cmd {
			args[j] = []byte(a)
		}
		cmds[i] = args
	}
	reps, err := kv.ExecPipe(cmds)
	if err != nil {
		return err
	}
	for i, s := range session {
		if got := reps[i].String(); got != s.want {
			return fmt.Errorf("smoke: %v replied %s, want %s", s.cmd, got, s.want)
		}
		fmt.Fprintf(out, "smoke: %v -> %s\n", s.cmd, reps[i])
	}
	fmt.Fprintf(out, "smoke: %d/%d replies ok\n", len(session), len(session))

	cmds = [][][]byte{{[]byte("INFO")}}
	if record {
		cmds = append(cmds, [][]byte{[]byte("DEBUG"), []byte("ADVISE")})
	}
	if reps, err = kv.ExecPipe(cmds); err != nil {
		return err
	}
	if err := checkInfo(reps[0].Text()); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: INFO %s\n", strings.Join(infoLines, " "))
	if record {
		if err := checkAdvice(reps[1], shards); err != nil {
			return err
		}
		fmt.Fprintf(out, "smoke: DEBUG ADVISE certified the planned single writer on each of %d shards\n", shards)
	}
	return nil
}

// infoLines are what INFO must report: the served store kind, the shard map
// shard confinement certifies, and the session's key count.
var infoLines = []string{"store_kind:" + server.StoreAdaptive, "shard_map:SWMRMap (M2, SWMR)", "keys:" + strconv.Itoa(smokeKeys)}

func checkInfo(info string) error {
	for _, line := range infoLines {
		if !strings.Contains(info, "\r\n"+line+"\r\n") {
			return fmt.Errorf("smoke: INFO lacks %q:\n%s", line, info)
		}
	}
	return nil
}

// checkAdvice requires DEBUG ADVISE to hold one certified single-writer
// recommendation per shard, matching the declaration the shard already
// plans: a shard's lock holder is its map's only writer.
func checkAdvice(rep wire.Reply, shards int) error {
	if rep.IsError() {
		return fmt.Errorf("smoke: DEBUG ADVISE replied %s", rep)
	}
	var advs []dego.Advice
	if err := json.Unmarshal(rep.Bulk, &advs); err != nil {
		return fmt.Errorf("smoke: DEBUG ADVISE is not advice JSON: %w", err)
	}
	if len(advs) != shards {
		return fmt.Errorf("smoke: DEBUG ADVISE has %d entries, want one per shard (%d)", len(advs), shards)
	}
	for i, a := range advs {
		if !a.SingleWriter || !a.Certified || !a.MatchesCurrent() {
			return fmt.Errorf("smoke: shard %d advice is not the planned, certified single writer: %+v", i, a)
		}
	}
	return nil
}
