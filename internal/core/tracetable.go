package core

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"subgemini/internal/label"
)

// tableTracer reproduces the presentation of the paper's Table 1: one row
// per vertex, one column per Phase II relabeling pass, cells showing
// symbolic labels (KV for the key pair's label, then A, B, C, ... in order
// of first appearance).  A '*' marks a safe vertex and brackets mark a
// matched one, mirroring the paper's boldface and boxes.  Main-graph rows
// are keyed by global vid, so an engine that works over region-local ids
// renders the same rows as one working over the whole graph.
type tableTracer struct {
	sSpace, gSpace *label.Space
	candidate      string

	passes  []passSnap
	symbols map[label.Value]string
}

type passSnap struct {
	sLab   []label.Value
	sSafe  []bool
	sMatch []bool
	g      map[label.VID]gCell // labeled main-graph vertices
}

// gCell is one main-graph vertex's state after a pass.
type gCell struct {
	lab           label.Value
	safe, matched bool
}

func newTableTracer(sSpace, gSpace *label.Space, candidate string) *tableTracer {
	return &tableTracer{
		sSpace:    sSpace,
		gSpace:    gSpace,
		candidate: candidate,
		symbols:   map[label.Value]string{},
	}
}

// pass records the pattern side after one relabel/partition pass, copying
// sLab and sSafe and taking ownership of sMatched, and returns the pass's
// main-graph map for the engine to fill with its labeled vertices.
func (t *tableTracer) pass(sLab []label.Value, sSafe, sMatched []bool) map[label.VID]gCell {
	g := map[label.VID]gCell{}
	t.passes = append(t.passes, passSnap{
		sLab:   append([]label.Value(nil), sLab...),
		sSafe:  append([]bool(nil), sSafe...),
		sMatch: sMatched,
		g:      g,
	})
	return g
}

// symbol assigns stable single-letter names in order of first appearance;
// the first label observed (the key pair's) is called KV as in the paper.
func (t *tableTracer) symbol(v label.Value) string {
	if v == 0 {
		return ""
	}
	if s, ok := t.symbols[v]; ok {
		return s
	}
	var s string
	if len(t.symbols) == 0 {
		s = "KV"
	} else {
		n := len(t.symbols) - 1
		for {
			s = string(rune('A'+n%26)) + s
			n = n/26 - 1
			if n < 0 {
				break
			}
		}
	}
	t.symbols[v] = s
	return s
}

func (t *tableTracer) cell(lab label.Value, safe, matched bool) string {
	s := t.symbol(lab)
	if s == "" {
		return ""
	}
	if safe {
		s = "*" + s
	}
	if matched {
		s = "[" + s + "]"
	}
	return s
}

// render writes the two per-pass tables (pattern then main graph), in the
// style of the paper's Table 1.  A main-graph vertex gets a row once any
// pass has labeled it.
func (t *tableTracer) render(w io.Writer, matched bool) {
	// Pre-assign symbols in pass/vertex order so naming is stable.
	for _, sn := range t.passes {
		for v := 0; v < len(sn.sLab); v++ {
			t.symbol(sn.sLab[v])
		}
	}
	verdict := "no match"
	if matched {
		verdict = "MATCH"
	}
	fmt.Fprintf(w, "Phase II trace for candidate %s (%s, %d passes)\n", t.candidate, verdict, len(t.passes))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "vertex"
	for i := range t.passes {
		header += fmt.Sprintf("\tpass %d", i+1)
	}
	fmt.Fprintf(tw, "-- pattern S --%s\n", dashes(len(t.passes)))
	fmt.Fprintln(tw, header)
	for v := 0; v < t.sSpace.Size(); v++ {
		line := t.sSpace.Name(label.VID(v))
		for _, sn := range t.passes {
			line += "\t" + t.cell(sn.sLab[v], sn.sSafe[v], sn.sMatch[v])
		}
		fmt.Fprintln(tw, line)
	}
	seen := map[label.VID]bool{}
	var gRows []label.VID
	for _, sn := range t.passes {
		for v := range sn.g {
			if !seen[v] {
				seen[v] = true
				gRows = append(gRows, v)
			}
		}
	}
	sort.Slice(gRows, func(i, j int) bool { return gRows[i] < gRows[j] })
	fmt.Fprintf(tw, "-- main graph G (touched vertices) --%s\n", dashes(len(t.passes)))
	fmt.Fprintln(tw, header)
	for _, v := range gRows {
		line := t.gSpace.Name(v)
		for _, sn := range t.passes {
			c := sn.g[v]
			line += "\t" + t.cell(c.lab, c.safe, c.matched)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func dashes(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "\t"
	}
	return s
}
