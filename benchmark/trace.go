package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"github.com/adjusted-objects/dego/internal/retwis"
)

// traceSchema versions the trace file layout.
const traceSchema = 1

// traceFullRequests is how many requests, shared evenly between the lanes,
// keep every span in the file; all requests count in the aggregates.
const traceFullRequests = 2000

type spanName uint8

// Span names. A net replay request has the six stage children in this order;
// a lib request (one block of 64 ops) has one child per Backend call, named
// after the op kind.
const (
	spanRequest spanName = iota
	spanExpand
	spanEncodeCmd
	spanDecodeCmd
	spanExecBatch
	spanEncodeReply
	spanDecodeReply
	spanAddUser
	spanFollow
	spanPost
	spanTimeline
	spanGroup
	spanProfile
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"request", "client.expand", "wire.encode_cmd", "wire.decode_cmd",
	"store.execbatch", "wire.encode_reply", "wire.decode_reply",
	"retwis.adduser", "retwis.follow", "retwis.post", "retwis.timeline",
	"retwis.group", "retwis.profile",
}

func opSpan(k retwis.OpKind) spanName {
	switch k {
	case retwis.OpAddUser:
		return spanAddUser
	case retwis.OpFollow:
		return spanFollow
	case retwis.OpPost:
		return spanPost
	case retwis.OpTimeline:
		return spanTimeline
	case retwis.OpJoinGroup, retwis.OpLeaveGroup:
		return spanGroup
	default:
		return spanProfile
	}
}

// span is one timed call. parent indexes the same lane (-1: none); request
// is the flush or block index all spans of one request share.
type span struct {
	name       spanName
	parent     int32
	request    int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory, one preallocated slice per recording
// goroutine (lane), and writes them out once at the end. A nil *tracer is
// never called: call sites branch on it so the untraced path pays nothing.
type tracer struct {
	epoch time.Time
	lanes [][]span
}

func newTracer(lanes, spansPerLane int) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([][]span, lanes)}
	for i := range t.lanes {
		t.lanes[i] = make([]span, 0, spansPerLane)
	}
	return t
}

func (t *tracer) begin(lane int, name spanName, parent, request int) int {
	t.lanes[lane] = append(t.lanes[lane], span{
		name: name, parent: int32(parent), request: int32(request),
		start: int64(time.Since(t.epoch)),
	})
	return len(t.lanes[lane]) - 1
}

func (t *tracer) end(lane, idx int) {
	t.lanes[lane][idx].end = int64(time.Since(t.epoch))
}

func (t *tracer) count() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l)
	}
	return n
}

// spanAgg is one span name's totals over every lane. Self is the span's
// duration minus what its child spans cover.
type spanAgg struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (t *tracer) aggregate() [numSpanNames]spanAgg {
	var aggs [numSpanNames]spanAgg
	for i := range aggs {
		aggs[i].Name = spanLabels[i]
	}
	for _, lane := range t.lanes {
		for _, s := range lane {
			d := s.end - s.start
			a := &aggs[s.name]
			a.Count++
			a.TotalNs += d
			a.SelfNs += d
			if s.parent >= 0 {
				aggs[lane[s.parent].name].SelfNs -= d
			}
		}
	}
	return aggs
}

// Trace file layout (schema 1).
type traceSpan struct {
	Lane    int    `json:"lane"`
	ID      int    `json:"id"`     // index within the lane
	Parent  int    `json:"parent"` // id within the lane, -1 for a request
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceFile struct {
	Schema     int         `json:"schema"`
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Commit     string      `json:"commit"`
	Spans      int         `json:"spans_recorded"`
	Aggregates []spanAgg   `json:"aggregates"`
	Full       []traceSpan `json:"spans"`
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (t *tracer) file(workload string, seed int64) traceFile {
	tf := traceFile{
		Schema: traceSchema, Workload: workload, Seed: seed,
		Commit: commit(), Spans: t.count(),
	}
	for _, a := range t.aggregate() {
		if a.Count > 0 {
			tf.Aggregates = append(tf.Aggregates, a)
		}
	}
	perLane := int32(traceFullRequests / len(t.lanes))
	for li, lane := range t.lanes {
		for i, s := range lane {
			if s.request >= perLane {
				break // requests are recorded in order within a lane
			}
			tf.Full = append(tf.Full, traceSpan{
				Lane: li, ID: i, Parent: int(s.parent), Request: int(s.request),
				Name: spanLabels[s.name], StartNs: s.start, EndNs: s.end,
			})
		}
	}
	return tf
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.file(workload, seed))
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
