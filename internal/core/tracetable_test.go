package core

import (
	"strings"
	"testing"

	"subgemini/internal/label"
)

// TestTraceTablePaperExample renders the Table-1-style trace on the
// paper's worked example and checks its structure: both candidates appear,
// the key pair carries the KV symbol, symmetric device pairs share labels
// in early passes, and the true candidate ends in a match.
func TestTraceTablePaperExample(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	var buf strings.Builder
	res, err := Find(g, s, Options{TraceTable: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	out := buf.String()
	t.Logf("\n%s", out)

	// One table per candidate: the false N13 and the true N14.
	if !strings.Contains(out, "candidate N13 (no match") {
		t.Error("missing the failed candidate N13 table")
	}
	if !strings.Contains(out, "candidate N14 (MATCH") {
		t.Error("missing the successful candidate N14 table")
	}
	for _, want := range []string{"-- pattern S --", "-- main graph G", "pass 1", "KV"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// The key vertex row must show the matched KV cell.
	if !strings.Contains(out, "[*KV]") && !strings.Contains(out, "[KV]") {
		t.Error("key vertex not shown as matched KV")
	}
	// Every pattern vertex appears as a row.
	for _, name := range []string{"D1", "D2", "D3", "D4", "N1", "N2", "N4", "N6"} {
		if !strings.Contains(out, "\n"+name) && !strings.Contains(out, name+"\t") {
			t.Errorf("vertex %s missing from trace", name)
		}
	}
}

// TestTraceTableSymbols checks the symbol assignment: KV first, then
// letters A..Z, then AA-style names, all stable per value.
func TestTraceTableSymbols(t *testing.T) {
	tr := newTableTracer(nil, nil, "c")
	if got := tr.symbol(label.Value(0)); got != "" {
		t.Errorf("symbol(0) = %q, want empty", got)
	}
	if got := tr.symbol(label.Value(100)); got != "KV" {
		t.Errorf("first symbol = %q, want KV", got)
	}
	if got := tr.symbol(label.Value(101)); got != "A" {
		t.Errorf("second symbol = %q, want A", got)
	}
	if got := tr.symbol(label.Value(102)); got != "B" {
		t.Errorf("third symbol = %q, want B", got)
	}
	if got := tr.symbol(label.Value(100)); got != "KV" {
		t.Errorf("repeat lookup = %q, want KV", got)
	}
	// Past Z the names become two letters.
	for v := uint64(200); v < 200+30; v++ {
		tr.symbol(label.Value(v))
	}
	long := tr.symbol(label.Value(200 + 29))
	if len(long) < 2 {
		t.Errorf("expected a multi-letter symbol, got %q", long)
	}
}

// TestTracePhase1PaperExample renders the Fig. 2/4-style Phase I trace on
// the worked example: corrupt pattern vertices show as "xx", pruned
// main-graph vertices as "-", and the key vertex N4 keeps a live label.
func TestTracePhase1PaperExample(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	var buf strings.Builder
	if _, err := Find(g, s, Options{TraceTable: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	t.Logf("\n%s", out)
	for _, want := range []string{
		"Phase I trace (key vertex N4, |CV| = 2)",
		"-- pattern S --", "-- main graph G --",
		"initial", "nets 1",
		"xx", // external nets corrupt
		"-",  // pruned main-graph vertices (Fig. 4's dashes)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Phase I trace missing %q", want)
		}
	}
	// The paper's initial labels: device types and net degrees.
	for _, want := range []string{"pmos", "nmos", " 2 "} {
		if !strings.Contains(out, want) {
			t.Errorf("invariant label %q missing from trace", want)
		}
	}
}
