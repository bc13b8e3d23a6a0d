package core

import (
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// TestGlobalsBakedInPatternPropagate exercises the globals-union rule in
// the S→G direction: the pattern declares VDD/GND global (as a .GLOBAL
// netlist directive would) while the main circuit has plain nets of those
// names and the options carry no globals at all.  The union applies to the
// run only: the main circuit's nets stay unmarked.
func TestGlobalsBakedInPatternPropagate(t *testing.T) {
	g := graph.New("g")
	vdd, gnd := g.AddNet("VDD"), g.AddNet("GND")
	a, y := g.AddNet("a"), g.AddNet("y")
	stdcell.INV.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "Y": y, "VDD": vdd, "GND": gnd})

	s := stdcell.INV.Pattern()
	s.MarkGlobal("VDD")
	s.MarkGlobal("GND")

	res, err := Find(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	if g.NetByName("VDD").Global {
		t.Error("pattern global was marked on the main circuit")
	}
}

// setupVerify runs one successful candidate verification on the Phase II
// engine and hands back its live state so the tests below can corrupt it
// and check that verifyMapping refuses.  sMatch holds region-local ids;
// the candidate's ball stays extracted, so local translates gvids.
func setupVerify(t *testing.T) (*p2region, *graph.Circuit, *graph.Circuit) {
	t.Helper()
	g := graph.New("g")
	vdd, gnd := g.AddNet("VDD"), g.AddNet("GND")
	nets := map[string]*graph.Net{
		"A": g.AddNet("a"), "B": g.AddNet("b"), "Y": g.AddNet("y"),
		"VDD": vdd, "GND": gnd,
	}
	stdcell.NAND2.MustInstantiate(g, "u1", nets)
	s := stdcell.NAND2.Pattern()

	m, err := NewMatcher(g, Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	s.MarkGlobal("VDD")
	s.MarkGlobal("GND")
	pat, err := m.prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Result{}
	p1 := newPhase1(m, pat, &rep.Report)
	key, cv, _ := p1.run()
	if len(cv) == 0 {
		t.Fatal("no candidates")
	}
	p2, err := newP2Region(m, pat, key, &rep.Report)
	if err != nil {
		t.Fatal(err)
	}
	if inst := p2.verifyCandidate(key, cv[0]); inst == nil {
		t.Fatal("true candidate failed")
	}
	if !p2.verifyMapping() {
		t.Fatal("intact mapping rejected")
	}
	return p2, g, s
}

func TestVerifyMappingRejectsDuplicateImages(t *testing.T) {
	p2, _, s := setupVerify(t)
	// Point two pattern devices at the same image.
	v1 := p2.sSpace.DevVID(s.Devices[0])
	v2 := p2.sSpace.DevVID(s.Devices[1])
	p2.sMatch[v1] = p2.sMatch[v2]
	if p2.verifyMapping() {
		t.Error("duplicate device image accepted")
	}
}

func TestVerifyMappingRejectsTypeMismatch(t *testing.T) {
	p2, g, s := setupVerify(t)
	// Swap a pmos image for an nmos one.
	var pm, nm *graph.Device
	for _, d := range s.Devices {
		if d.Type == "pmos" && pm == nil {
			pm = d
		}
		if d.Type == "nmos" && nm == nil {
			nm = d
		}
	}
	_ = g
	vp, vn := p2.sSpace.DevVID(pm), p2.sSpace.DevVID(nm)
	p2.sMatch[vp], p2.sMatch[vn] = p2.sMatch[vn], p2.sMatch[vp]
	if p2.verifyMapping() {
		t.Error("type-mismatched mapping accepted")
	}
}

func TestVerifyMappingRejectsUnmatchedVertex(t *testing.T) {
	p2, _, s := setupVerify(t)
	p2.sMatch[p2.sSpace.DevVID(s.Devices[0])] = unmatchedL
	if p2.verifyMapping() {
		t.Error("mapping with an unmatched device accepted")
	}
	p2b, _, sb := setupVerify(t)
	var internal *graph.Net
	for _, n := range sb.Nets {
		if !n.Port && !n.Global {
			internal = n
		}
	}
	p2b.sMatch[p2b.sSpace.NetVID(internal)] = unmatchedL
	if p2b.verifyMapping() {
		t.Error("mapping with an unmatched net accepted")
	}
}

func TestVerifyMappingRejectsWrongNetImage(t *testing.T) {
	p2, g, s := setupVerify(t)
	// Re-point the internal net's image at an unrelated net: pin agreement
	// and the degree condition must catch it.
	var internal *graph.Net
	for _, n := range s.Nets {
		if !n.Port && !n.Global {
			internal = n
		}
	}
	a := p2.local[p2.gSpace.NetVID(g.NetByName("a"))]
	if a < 0 {
		t.Fatal("net a lies outside the candidate's ball")
	}
	p2.sMatch[p2.sSpace.NetVID(internal)] = a
	if p2.verifyMapping() {
		t.Error("wrong internal-net image accepted")
	}
}
