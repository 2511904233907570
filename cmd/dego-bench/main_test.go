package main

import (
	"math"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 5,10", 1, math.MaxInt32)
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 10 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	// -ratios are percentages: a read-only and an update-only table are
	// valid, anything past 100 % is not.
	if got, err := parseInts("0,100", 0, 100); err != nil || len(got) != 2 {
		t.Fatalf("parseInts(0,100) = %v, %v", got, err)
	}
	for _, bad := range []struct {
		s      string
		lo, hi int
	}{
		{"", 1, math.MaxInt32}, {"a", 1, math.MaxInt32}, {"0", 1, math.MaxInt32},
		{"-3", 1, math.MaxInt32}, {"1,,2", 1, math.MaxInt32},
		{"250", 0, 100}, {"-1", 0, 100}, {"25,101", 0, 100},
	} {
		if _, err := parseInts(bad.s, bad.lo, bad.hi); err == nil {
			t.Errorf("parseInts(%q, %d, %d) accepted", bad.s, bad.lo, bad.hi)
		}
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "42"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-threads", "x"}); err == nil {
		t.Fatal("bad threads accepted")
	}
	if err := run([]string{"-fig", "7", "-ratios", "250"}); err == nil {
		t.Fatal("-ratios 250 accepted")
	}
}
