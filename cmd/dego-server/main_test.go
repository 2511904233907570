package main

import (
	"os"
	"testing"
)

// TestSmokeMode runs the CI self-session in-process, as `make server-smoke`
// does: boot on an ephemeral port, pipeline the scripted GET/SET/INCR/LRANGE
// session through the wire client, verify every reply and INFO — and, with
// -record, DEBUG ADVISE.
func TestSmokeMode(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, args := range [][]string{{"-smoke", "-shards", "2"}, {"-smoke", "-shards", "2", "-record"}} {
		if err := run(args, null); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestBadFlags(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := run([]string{"-smoke", "-shards", "x"}, null); err == nil {
		t.Fatal("non-numeric -shards accepted")
	}
}
