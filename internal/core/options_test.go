package core

import (
	"strings"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

func railNets(c *graph.Circuit) (vdd, gnd *graph.Net) {
	return c.AddNet("VDD"), c.AddNet("GND")
}

func TestNilAndEmptyInputs(t *testing.T) {
	if _, err := Find(nil, stdcell.INV.Pattern(), Options{}); err == nil {
		t.Error("nil main circuit accepted")
	}
	if _, err := Find(graph.New("g"), nil, Options{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Find(graph.New("g"), graph.New("s"), Options{}); err == nil {
		t.Error("device-less pattern accepted")
	}
}

func TestUnconnectedPatternNetRejected(t *testing.T) {
	s := stdcell.INV.Pattern()
	s.AddNet("floating")
	if _, err := Find(graph.New("g"), s, Options{}); err == nil {
		t.Error("pattern with unconnected net accepted")
	}
}

func TestDisconnectedPatternRejected(t *testing.T) {
	// Two inverters connected only through the rails: once VDD/GND are
	// global, the pattern has two components and must be rejected.
	build := func() *graph.Circuit {
		s := graph.New("twoinv")
		vdd, gnd := railNets(s)
		for _, suffix := range []string{"1", "2"} {
			a, y := s.AddNet("a"+suffix), s.AddNet("y"+suffix)
			stdcell.INV.MustInstantiate(s, "u"+suffix, map[string]*graph.Net{
				"A": a, "Y": y, "VDD": vdd, "GND": gnd,
			})
		}
		return s
	}
	g := graph.New("g")
	_, err := Find(g, build(), Options{Globals: []string{"VDD", "GND"}})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("disconnected pattern not rejected: %v", err)
	}
	// Without globals the rails are ordinary nets, the pattern is
	// connected, and matching must proceed (finding nothing in an empty
	// circuit is fine — but it must not error).
	g2 := graph.New("g2")
	if _, err := Find(g2, build(), Options{}); err != nil {
		t.Errorf("connected variant rejected: %v", err)
	}
}

func TestPatternGlobalMissingFromCircuit(t *testing.T) {
	// The circuit has no VDD net at all; the pattern requires it.  This is
	// "no instances", not an error.
	g := graph.New("g")
	gnd := g.AddNet("GND")
	a, y := g.AddNet("a"), g.AddNet("y")
	cls := []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}
	g.MustAddDevice("m", "nmos", cls, []*graph.Net{a, y, gnd})
	res, err := Find(g, stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Errorf("found %d instances, want 0", len(res.Instances))
	}
}

func TestMaxInstancesOption(t *testing.T) {
	g := graph.New("chain")
	vdd, gnd := railNets(g)
	prev := g.AddNet("n0")
	for i := 0; i < 8; i++ {
		next := g.AddNet("n" + string(rune('1'+i)))
		stdcell.INV.MustInstantiate(g, "u"+string(rune('a'+i)), map[string]*graph.Net{
			"A": prev, "Y": next, "VDD": vdd, "GND": gnd,
		})
		prev = next
	}
	res, err := Find(g, stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}, MaxInstances: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 3 {
		t.Errorf("found %d instances, want 3 (capped)", len(res.Instances))
	}
}

func TestNonOverlappingConsumesDevices(t *testing.T) {
	// A 4-stage inverter chain contains 3 overlapping BUF (double
	// inverter) instances; the non-overlapping policy must report at most
	// 2 disjoint ones, MatchAll all 3.
	build := func() *graph.Circuit {
		g := graph.New("chain")
		vdd, gnd := railNets(g)
		prev := g.AddNet("n0")
		for i := 0; i < 4; i++ {
			next := g.AddNet("n" + string(rune('1'+i)))
			stdcell.INV.MustInstantiate(g, "u"+string(rune('a'+i)), map[string]*graph.Net{
				"A": prev, "Y": next, "VDD": vdd, "GND": gnd,
			})
			prev = next
		}
		return g
	}
	opts := Options{Globals: []string{"VDD", "GND"}}
	all, err := Find(build(), stdcell.BUF.Pattern(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Instances) != 3 {
		t.Errorf("MatchAll found %d BUFs, want 3", len(all.Instances))
	}
	opts.Policy = NonOverlapping
	dis, err := Find(build(), stdcell.BUF.Pattern(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dis.Instances) != 2 {
		t.Errorf("NonOverlapping found %d BUFs, want 2", len(dis.Instances))
	}
	// Disjointness.
	seen := map[string]bool{}
	for _, inst := range dis.Instances {
		for _, d := range inst.DevMap {
			if seen[d.Name] {
				t.Errorf("device %s in two non-overlapping instances", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func TestMatcherReuseAndResetConsumed(t *testing.T) {
	g := graph.New("chain")
	vdd, gnd := railNets(g)
	a, y := g.AddNet("a"), g.AddNet("y")
	stdcell.INV.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "Y": y, "VDD": vdd, "GND": gnd})

	m, err := NewMatcher(g, Options{Globals: []string{"VDD", "GND"}, Policy: NonOverlapping})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Find(stdcell.INV.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("first pass found %d, want 1", len(res.Instances))
	}
	// Second pass: devices consumed.
	res, err = m.Find(stdcell.INV.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Errorf("second pass found %d, want 0 (consumed)", len(res.Instances))
	}
	m.ResetConsumed()
	res, err = m.Find(stdcell.INV.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Errorf("after reset found %d, want 1", len(res.Instances))
	}
}

func TestSeedsProduceSameResult(t *testing.T) {
	g := func() *graph.Circuit {
		c := graph.New("g")
		vdd, gnd := railNets(c)
		nets := map[string]*graph.Net{
			"A": c.AddNet("a"), "B": c.AddNet("b"), "Y": c.AddNet("y"),
			"VDD": vdd, "GND": gnd,
		}
		stdcell.XOR2.MustInstantiate(c, "u1", nets)
		return c
	}
	for seed := uint64(0); seed < 5; seed++ {
		res, err := Find(g(), stdcell.XOR2.Pattern(), Options{Globals: []string{"VDD", "GND"}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Instances) != 1 {
			t.Errorf("seed %d: found %d instances, want 1", seed, len(res.Instances))
		}
	}
}

func TestReportFields(t *testing.T) {
	g := graph.New("g")
	vdd, gnd := railNets(g)
	a, y := g.AddNet("a"), g.AddNet("y")
	stdcell.INV.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "Y": y, "VDD": vdd, "GND": gnd})
	res, err := Find(g, stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	if r.Instances != 1 || r.MatchedDevices != 2 {
		t.Errorf("Instances=%d MatchedDevices=%d, want 1, 2", r.Instances, r.MatchedDevices)
	}
	if r.CVSize < 1 || r.Candidates < 1 || r.KeyVertex == "" {
		t.Errorf("report incomplete: %s", r.String())
	}
	if r.Total() < r.Phase1Duration || r.Total() < r.Phase2Duration {
		t.Error("Total() smaller than a phase duration")
	}
	if !strings.Contains(r.String(), "instances=1") {
		t.Errorf("String() = %q", r.String())
	}
}

// TestPatternLargerThanCircuit: Phase I's consistency check must prove
// non-existence without Phase II work.
func TestPatternLargerThanCircuit(t *testing.T) {
	g := graph.New("tiny")
	vdd, gnd := railNets(g)
	a, y := g.AddNet("a"), g.AddNet("y")
	stdcell.INV.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "Y": y, "VDD": vdd, "GND": gnd})
	res, err := Find(g, stdcell.FA.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Errorf("found %d instances, want 0", len(res.Instances))
	}
	if !res.Report.EarlyAbort {
		t.Error("Phase I did not early-abort on an impossible pattern")
	}
	if res.Report.Candidates != 0 {
		t.Errorf("Phase II examined %d candidates, want 0", res.Report.Candidates)
	}
}

func TestSummaryAndString(t *testing.T) {
	g := graph.New("g")
	vdd, gnd := railNets(g)
	a, y := g.AddNet("a"), g.AddNet("y")
	stdcell.INV.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "Y": y, "VDD": vdd, "GND": gnd})
	res, err := Find(g, stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary(), "1 instance(s)") {
		t.Errorf("Summary = %q", res.Summary())
	}
	if got := res.Instances[0].String(); got != "{u1.MP u1.MN}" {
		t.Errorf("Instance.String = %q", got)
	}
}
