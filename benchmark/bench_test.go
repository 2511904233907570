package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/wire"
)

// tinySizes keeps every code path of a full run and almost none of its work.
func tinySizes() sizes {
	return sizes{
		trials:       2,
		libUsers:     2000,
		libOps:       10 * libBlock,
		netUsers:     1000,
		p16Ops:       20 * warmDepth,
		readWarmOps:  4000,
		readOps:      200,
		openArrivals: 400,
		openRate:     2000, // slow enough for the race detector

		kindOps:       10 * libBlock,
		tracedLibOps:  10 * libBlock,
		replayFlushes: 100,
		exec1Ops:      500,
		repKeys:       4096,
		repSmallKeys:  1024,
	}
}

func TestPercentileIsExact(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	cases := []struct {
		sorted []int64
		q      float64
		want   int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.5, 7},
		{[]int64{7}, 0.999, 7},
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{[]int64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]int64{1, 2, 3, 4, 5}, 0, 1},
		{[]int64{1, 2, 3, 4, 5}, 1, 5},
		{hundred, 0.5, 50},
		{hundred, 0.99, 99},
		{hundred, 0.999, 100},
		{[]int64{10, 10, 10, 1000}, 0.75, 10},
		{[]int64{10, 10, 10, 1000}, 0.76, 1000},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", c.sorted, c.q, got, c.want)
		}
	}
	if got := sortSamples([]int64{3, 1, 2}); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sortSamples = %v", got)
	}
}

// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1 2 4 8 16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// commandStream is the bytes a workload's clients put on the wire for their
// first flushes, and the commands and ops they hold.
func commandStream(t *testing.T, st *stream, flushes int) (wireBytes []byte, cmds, ops int) {
	t.Helper()
	var (
		buf bytes.Buffer
		kv  captureKV
	)
	w := wire.NewWriter(&buf)
	cls := make([]*retwis.NetClient, workers)
	for i := range cls {
		cls[i] = retwis.NewNetClient(&kv, st.graph)
	}
	for f := 0; f < flushes; f++ {
		st.fill(f%workers, cls[f%workers], false)
		if err := cls[f%workers].Flush(); err != nil {
			t.Fatal(err)
		}
		for _, cm := range kv.cmds {
			if err := w.WriteCommand(cm...); err != nil {
				t.Fatal(err)
			}
		}
		cmds += len(kv.cmds)
		ops += st.shape.depth
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cmds, ops
}

func TestSeedDecidesTheCommandStream(t *testing.T) {
	sz := tinySizes()
	streams := map[string]func(seed int64) *stream{
		"net_table2_p16": func(seed int64) *stream { return newStream(seed, sz.p16()) },
		"net_read_p1":    func(seed int64) *stream { return newStream(seed, sz.readP1()) },
		"net_table2_open": func(seed int64) *stream {
			st := newStream(seed, netShape{users: sz.netUsers, depth: 1})
			st.drawn = retwis.DrawOps(st.p, 400)
			return st
		},
	}
	for name, mk := range streams {
		a, aCmds, aOps := commandStream(t, mk(42), 400)
		b, bCmds, bOps := commandStream(t, mk(42), 400)
		c, _, _ := commandStream(t, mk(7), 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different command streams", name)
		}
		if aCmds != bCmds || aOps != bOps {
			t.Errorf("%s: the same seed gave %d/%d then %d/%d commands/ops", name, aCmds, aOps, bCmds, bOps)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 7 gave the same command stream", name)
		}
		if len(a) == 0 || aCmds < aOps {
			t.Errorf("%s: %d bytes, %d commands for %d ops", name, len(a), aCmds, aOps)
		}
	}
}

func TestSeedDecidesTheCellKeys(t *testing.T) {
	a, ao := cellKeys(42, 100)
	b, bo := cellKeys(42, 100)
	c, _ := cellKeys(7, 100)
	for i := range a {
		if a[i] != b[i] || ao[i] != bo[i] {
			t.Fatalf("same seed, different key set at %d", i)
		}
	}
	if a[0] == c[0] && a[1] == c[1] {
		t.Errorf("seeds 42 and 7 drew the same keys")
	}
}

// Every workload emits the five end-to-end metrics on the timed run and, on
// the per-layer run, every catalogue name: the ones specified for it
// measured (runLayers refuses anything else), the rest 0.
func TestEveryMetricIsEmitted(t *testing.T) {
	sz := tinySizes()
	out := t.TempDir()
	for _, w := range workloads {
		res, err := runTimed(w, 42, sz)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s timed: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s timed: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || !(got.Value > 0) {
				t.Errorf("%s timed: %s = %+v (present=%v), want a positive value in %s", w.name, m.name, got, ok, m.unit)
			}
		}

		res, err = runLayers(w, 42, sz, out)
		if err != nil {
			t.Fatalf("%s layers: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s layers: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s layers: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s layers: %s = %+v (present=%v), want a finite value in %s", w.name, m.name, got, ok, m.unit)
			}
			if m.on&w.on == 0 && got.Value != 0 {
				t.Errorf("%s layers: %s = %g, but the layer is not on this workload's path", w.name, m.name, got.Value)
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"), w.name, 42)
	}
}

// checkTraceFile loads a written trace and checks its header and that every
// child span lies inside its parent, the children of one parent adding up to
// no more than the parent.
func checkTraceFile(t *testing.T, path, workload string, seed int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.Schema != traceSchema || tf.Workload != workload || tf.Seed != seed || tf.Commit == "" {
		t.Errorf("%s: header schema=%d workload=%q seed=%d commit=%q", path, tf.Schema, tf.Workload, tf.Seed, tf.Commit)
	}
	if len(tf.Full) == 0 || len(tf.Aggregates) == 0 || tf.Spans < len(tf.Full) {
		t.Fatalf("%s: %d spans in full, %d aggregates, %d recorded", path, len(tf.Full), len(tf.Aggregates), tf.Spans)
	}
	type key struct{ lane, id int }
	byID := make(map[key]traceSpan, len(tf.Full))
	for _, s := range tf.Full {
		byID[key{s.Lane, s.ID}] = s
	}
	children := map[key]int64{}
	for _, s := range tf.Full {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d/%d ends before it starts", path, s.Lane, s.ID)
		}
		if s.Parent < 0 {
			if s.Name != "request" {
				t.Errorf("%s: root span %d/%d is a %s", path, s.Lane, s.ID, s.Name)
			}
			continue
		}
		p, ok := byID[key{s.Lane, s.Parent}]
		if !ok {
			t.Fatalf("%s: span %d/%d has no parent %d in the file", path, s.Lane, s.ID, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Request != p.Request {
			t.Errorf("%s: span %d/%d [%d,%d] req %d is not inside its parent [%d,%d] req %d",
				path, s.Lane, s.ID, s.StartNs, s.EndNs, s.Request, p.StartNs, p.EndNs, p.Request)
		}
		children[key{s.Lane, s.Parent}] += s.EndNs - s.StartNs
	}
	for k, sum := range children {
		if p := byID[k]; sum > p.EndNs-p.StartNs {
			t.Errorf("%s: children of span %d/%d add up to %d ns, the span is %d ns", path, k.lane, k.id, sum, p.EndNs-p.StartNs)
		}
	}
	for _, a := range tf.Aggregates {
		if a.SelfNs < 0 || a.SelfNs > a.TotalNs {
			t.Errorf("%s: aggregate %s has self %d ns of total %d ns", path, a.Name, a.SelfNs, a.TotalNs)
		}
	}
}

// BENCHMARK.json at the root of the repo and the tables in this package name
// the same workloads and metrics, with the same units.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i] != (entry{m.name, m.unit}) {
			t.Errorf("end-to-end %d: BENCHMARK.json says %v, the code %v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i] != (entry{m.name, m.unit}) {
			t.Errorf("per-layer %d: BENCHMARK.json says %v, the code {%s %s}", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}
