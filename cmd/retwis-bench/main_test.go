package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/adjusted-objects/dego/internal/retwis"
)

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts("100,200")
	if err != nil || len(ints) != 2 || ints[1] != 200 {
		t.Fatalf("parseInts = %v, %v", ints, err)
	}
	for _, bad := range []string{"x", "0", "4,-1"} {
		if _, err := parseInts(bad); err == nil {
			t.Fatalf("parseInts(%q) accepted", bad)
		}
	}
	if err := run([]string{"-fig", "9", "-threads", "0"}); err == nil {
		t.Fatal("-threads 0 accepted")
	}
	if err := run([]string{"-net", "-netusers", "0", "-netops", "10"}); err == nil {
		t.Fatal("-netusers 0 accepted")
	}
	floats, err := parseFloats("0, 0.5 ,1")
	if err != nil || len(floats) != 3 || floats[1] != 0.5 {
		t.Fatalf("parseFloats = %v, %v", floats, err)
	}
	if _, err := parseFloats("y"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "3"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("2k, 4K ,0.5m,800")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2000, 4000, 500_000, 800}
	for i, r := range rates {
		if r != want[i] {
			t.Fatalf("parseRates[%d] = %v, want %v", i, r, want[i])
		}
	}
	for _, bad := range []string{"x", "1g", "0", "-2k", ""} {
		if _, err := parseRates(bad); err == nil {
			t.Fatalf("parseRates(%q) accepted", bad)
		}
	}
}

// TestRunNetModes drives -net end to end against a self-hosted server,
// once under each pacing, and reads back the JSON it wrote.
func TestRunNetModes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		process string
	}{
		{[]string{"-netops", "203"}, "closed"},
		{[]string{"-arrivals", "uniform", "-rates", "2k", "-netduration", "100ms"}, "uniform"},
	} {
		path := filepath.Join(t.TempDir(), "net.json")
		args := append([]string{"-net", "-conns", "2", "-netusers", "200", "-json", path}, tc.args...)
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var pts []retwis.NetPoint
		if err := json.Unmarshal(blob, &pts); err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 || pts[0].Process != tc.process || pts[0].Executed == 0 || pts[0].Workers != 2 {
			t.Fatalf("%v wrote %+v", args, pts)
		}
		if tc.process == "closed" && pts[0].Executed != 203 {
			t.Fatalf("closed point executed %d ops, want 203", pts[0].Executed)
		}
	}
}
