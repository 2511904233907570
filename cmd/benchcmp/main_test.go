package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/bench"
	"github.com/adjusted-objects/dego/internal/retwis"
)

// writeFrontier persists a one-cell open-loop frontier artifact.
func writeFrontier(t *testing.T, dir, name string, achieved float64, p99 uint64, saturated bool) string {
	t.Helper()
	pts := []retwis.NetPoint{{
		Store: "adaptive", Shards: 4, Pipeline: 8, Workers: 2, Process: "inproc",
		TargetRate: 2000, AchievedRate: achieved, ElapsedMS: 300,
		P99us: p99, Saturated: saturated,
	}}
	blob, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFrontierCompareWithinBand(t *testing.T) {
	dir := t.TempDir()
	old := writeFrontier(t, dir, "old.json", 2000, 500, false)
	cur := writeFrontier(t, dir, "new.json", 1800, 600, false) // -10% rate, +20% p99
	var out strings.Builder
	if err := run([]string{"-fail", old, cur}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 regression(s)") ||
		!strings.Contains(out.String(), "frontier cell(s) compared") {
		t.Fatalf("output missing clean frontier verdict:\n%s", out.String())
	}
}

func TestFrontierRateRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeFrontier(t, dir, "old.json", 2000, 500, false)
	cur := writeFrontier(t, dir, "new.json", 400, 500, true) // collapsed throughput
	var out strings.Builder
	if err := run([]string{"-fail", old, cur}, &out); err == nil {
		t.Fatalf("run accepted a collapsed achieved rate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(rate)") {
		t.Fatalf("output missing rate regression verdict:\n%s", out.String())
	}
	// Non-blocking without -fail, mirroring the CI step.
	if err := run([]string{old, cur}, &strings.Builder{}); err != nil {
		t.Fatalf("non-fail mode errored: %v", err)
	}
}

func TestFrontierLatencyRegressionNeedsBothUnsaturated(t *testing.T) {
	dir := t.TempDir()
	old := writeFrontier(t, dir, "old.json", 2000, 500, false)
	slow := writeFrontier(t, dir, "slow.json", 2000, 5000, false) // 10x p99, same rate
	var out strings.Builder
	if err := run([]string{"-fail", old, slow}, &out); err == nil {
		t.Fatalf("run accepted a 10x p99 blowup:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(p99)") {
		t.Fatalf("output missing p99 regression verdict:\n%s", out.String())
	}

	// The same p99 blowup at a saturated cell measures queueing, not the
	// server: judged on rate alone.
	oldSat := writeFrontier(t, dir, "oldsat.json", 2000, 500, true)
	slowSat := writeFrontier(t, dir, "slowsat.json", 2000, 5000, true)
	var satOut strings.Builder
	if err := run([]string{"-fail", oldSat, slowSat}, &satOut); err != nil {
		t.Fatalf("saturated p99 must not fail: %v\n%s", err, satOut.String())
	}
	if !strings.Contains(satOut.String(), "ok(rate-only)") {
		t.Fatalf("output missing rate-only verdict:\n%s", satOut.String())
	}
}

func TestMixedArtifactKindsRejected(t *testing.T) {
	dir := t.TempDir()
	benchFile := writeArtifact(t, dir, "bench.json", 1000)
	frontierFile := writeFrontier(t, dir, "frontier.json", 2000, 500, false)
	if err := run([]string{benchFile, frontierFile}, &strings.Builder{}); err == nil {
		t.Fatal("run accepted a bench artifact against a frontier artifact")
	}
}

// writeArtifact persists a minimal dego-bench JSON with one flat series
// whose single point runs at kops Kops/s.
func writeArtifact(t *testing.T, dir, name string, kops float64) string {
	t.Helper()
	r := bench.Result{
		Name:    "FlatShardedMap",
		Threads: 1,
		Ops:     int64(kops * 1e3), // over one second
		Elapsed: time.Second,
	}
	a := artifact{
		BaseConfig: bench.Config{InitialItems: 1024, KeyRange: 2048},
		Threads:    []int{1},
		Figures: map[string]map[string]map[string][]bench.Result{
			"flat": {"1024 initial items": {"FlatShardedMap": {r}}},
		},
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinBand(t *testing.T) {
	dir := t.TempDir()
	old := writeArtifact(t, dir, "old.json", 1000)
	cur := writeArtifact(t, dir, "new.json", 900) // -10%: inside ±40%
	var out strings.Builder
	if err := run([]string{"-fail", old, cur}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 regression(s)") {
		t.Fatalf("output missing clean verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0.90x") {
		t.Fatalf("output missing ratio:\n%s", out.String())
	}
}

func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeArtifact(t, dir, "old.json", 1000)
	cur := writeArtifact(t, dir, "new.json", 100) // -90%: outside any band
	var out strings.Builder
	if err := run([]string{"-fail", old, cur}, &out); err == nil {
		t.Fatalf("run accepted a 0.10x regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("output missing REGRESSION verdict:\n%s", out.String())
	}
	// Without -fail the same comparison reports but succeeds (the CI step
	// is non-blocking).
	var quiet strings.Builder
	if err := run([]string{old, cur}, &quiet); err != nil {
		t.Fatalf("non-fail mode errored: %v", err)
	}
}

func TestCompareUnmatchedPoints(t *testing.T) {
	dir := t.TempDir()
	old := writeArtifact(t, dir, "old.json", 1000)
	cur := filepath.Join(dir, "renamed.json")
	blob, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur,
		[]byte(strings.ReplaceAll(string(blob), "FlatShardedMap", "RenamedMap")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-fail", old, cur}, &out); err != nil {
		t.Fatalf("unmatched-only comparison must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "only in one file") {
		t.Fatalf("output missing unmatched note:\n%s", out.String())
	}
}
