package core

import (
	"testing"

	"subgemini/internal/gen/paperex"
	"subgemini/internal/graph"
)

var mos3 = []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}

// paperSubgraph and paperMainGraph are the paper's Fig. 1 worked example —
// the pattern around the key vertex N4 and the main circuit with the decoy
// candidate N13.  They live in internal/gen/paperex so cmd/docgen can run
// the same circuits when regenerating ALGORITHM.md's tables.
func paperSubgraph() *graph.Circuit  { return paperex.PaperPattern() }
func paperMainGraph() *graph.Circuit { return paperex.PaperMain() }

// TestPaperExamplePhase1 checks the Phase I outcome the paper walks
// through: N4 is the key vertex (the only internal net survives
// relabeling) and the candidate vector is exactly {N13, N14}.
func TestPaperExamplePhase1(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	m, err := NewMatcher(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := m.prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	var rep = &Result{}
	p1 := newPhase1(m, pat, &rep.Report)
	key, cv, _ := p1.run()

	if got := pat.space.Name(key); got != "N4" {
		t.Errorf("key vertex = %s, want N4", got)
	}
	if len(cv) != 2 {
		t.Fatalf("|CV| = %d, want 2", len(cv))
	}
	names := map[string]bool{}
	for _, v := range cv {
		names[m.gSpace.Name(v)] = true
	}
	if !names["N13"] || !names["N14"] {
		t.Errorf("CV = %v, want {N13, N14}", names)
	}
}

// TestPaperExamplePhase2 checks the end-to-end result on the worked
// example: exactly one instance with the mapping Table 1 derives
// (D1→D6, D2→D7, D3→D9, D4→D11), found despite the false candidate N13.
func TestPaperExamplePhase2(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	res, err := Find(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1 (report: %s)", len(res.Instances), res.Report.String())
	}
	want := map[string]string{"D1": "D6", "D2": "D7", "D3": "D9", "D4": "D11"}
	for sd, gd := range res.Instances[0].DevMap {
		if want[sd.Name] != gd.Name {
			t.Errorf("image(%s) = %s, want %s", sd.Name, gd.Name, want[sd.Name])
		}
	}
	wantNets := map[string]string{"N1": "N7", "N2": "N10", "N3": "N8", "N4": "N14", "N5": "N9", "N6": "N15"}
	for sn, gnet := range res.Instances[0].NetMap {
		if want, ok := wantNets[sn.Name]; ok && want != gnet.Name {
			t.Errorf("image(%s) = %s, want %s", sn.Name, gnet.Name, want)
		}
	}
	if res.Report.CVSize != 2 {
		t.Errorf("CV size = %d, want 2", res.Report.CVSize)
	}
	// The paper's Table 1 verifies N14 in 7 passes; allow slack for the
	// rejected candidate N13 but catch regressions toward brute force.
	if res.Report.Phase2Passes > 16 {
		t.Errorf("Phase II took %d passes across both candidates, want <= 16", res.Report.Phase2Passes)
	}
}

// TestFig5Symmetry reproduces paper Fig. 5: a symmetric parallel transistor
// pair forces Phase II to guess, but either choice is correct, so the match
// succeeds without backtracking.
func TestFig5Symmetry(t *testing.T) {
	build := func(name string) *graph.Circuit {
		c := graph.New(name)
		x, y := c.AddNet("X"), c.AddNet("Y")
		ga, gb := c.AddNet("GA"), c.AddNet("GB")
		c.MustAddDevice("MA", "nmos", mos3, []*graph.Net{x, ga, y})
		c.MustAddDevice("MB", "nmos", mos3, []*graph.Net{x, gb, y})
		return c
	}
	s := build("pairS")
	for _, p := range []string{"X", "GA", "GB"} {
		if err := s.MarkPort(p); err != nil {
			t.Fatal(err)
		}
	}
	// Y is internal: the pair plus its shared node must be found exactly.
	g := build("pairG")
	// Give the external nets some context so the main graph is bigger than
	// the pattern.
	load := g.AddNet("load")
	g.MustAddDevice("ML", "nmos", mos3, []*graph.Net{g.NetByName("X"), load, g.AddNet("Z")})

	res, err := Find(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1 (report: %s)", len(res.Instances), res.Report.String())
	}
	if res.Report.Guesses == 0 {
		t.Errorf("expected at least one guess for the symmetric pair, got none (report: %s)", res.Report.String())
	}
	if res.Report.Backtracks != 0 {
		t.Errorf("expected no backtracking (either guess is correct), got %d", res.Report.Backtracks)
	}
}
