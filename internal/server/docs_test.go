package server

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestProtocolDocListsTheTable holds docs/PROTOCOL.md to the command table:
// its verb tables name exactly the table's rows, and its "Client retry
// safety" block lists exactly the read-only keyed rows, the verbs a client
// may replay.
func TestProtocolDocListsTheTable(t *testing.T) {
	b, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	section := func(start, end string) string {
		i := strings.Index(doc, start)
		j := strings.Index(doc[i+1:], end)
		if i < 0 || j < 0 {
			t.Fatalf("PROTOCOL.md has no %q section ending at %q", start, end)
		}
		return doc[i : i+1+j]
	}

	// The first cell of a verb-table row names its verb in backticks, the
	// verb being the first word: "`PING [msg]`", "`FLUSHALL` / `FLUSHDB`".
	var documented []string
	code := regexp.MustCompile("`([A-Z]+)[^`]*`")
	for _, line := range strings.Split(section("\n## Verbs", "\n## "), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		for _, m := range code.FindAllStringSubmatch(cell, -1) {
			documented = append(documented, m[1])
		}
	}
	var rows, readOnly []string
	for _, c := range commands {
		rows = append(rows, c.name)
		if c.readOnly && c.fan != fanInline {
			readOnly = append(readOnly, c.name)
		}
	}
	if got, want := sorted(documented), sorted(rows); !slices.Equal(got, want) {
		t.Errorf("PROTOCOL.md verb tables name %v, the command table %v", got, want)
	}

	retry := section("\n### Client retry safety", "\n## ")
	fence := strings.Split(retry, "```")
	if len(fence) < 3 {
		t.Fatal(`PROTOCOL.md "Client retry safety" has no fenced verb list`)
	}
	if got, want := sorted(strings.Fields(fence[1])), sorted(readOnly); !slices.Equal(got, want) {
		t.Errorf("PROTOCOL.md retry-safe verbs %v, the command table's read-only verbs %v", got, want)
	}
}

// sorted returns the distinct strings of s in order.
func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return slices.Compact(s)
}

// TestReadOnly: the verbs a client may replay match in any case; writes,
// control verbs and unknown verbs do not.
func TestReadOnly(t *testing.T) {
	for verb, want := range map[string]bool{
		"GET": true, "exists": true, "SMembers": true, "lrange": true, "ZRANGEBYSCORE": true,
		"SET": false, "incr": false, "ZREMRANGEBYSCORE": false, "PING": false, "INFO": false,
		"GETX": false, "GE": false, "": false,
	} {
		if got := ReadOnly([]byte(verb)); got != want {
			t.Errorf("ReadOnly(%q) = %v, want %v", verb, got, want)
		}
	}
}
