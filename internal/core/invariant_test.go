package core

import (
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stdcell"
)

// TestPhase1LabelInvariant is a white-box check of Label Invariant (1):
// after every relabeling round, every pattern vertex still marked valid has
// exactly the same label as its image inside a known planted instance.
//
// The main circuit is a NAND2 instance surrounded by extra context; the
// known mapping is by construction.  The test replays Phase I round by
// round (the same sequence run() performs) and compares labels after each
// step.
func TestPhase1LabelInvariant(t *testing.T) {
	// Main circuit: one NAND2 plus context loading every port.
	g := graph.New("ctx")
	vdd, gnd := g.AddNet("VDD"), g.AddNet("GND")
	a, b, y := g.AddNet("a"), g.AddNet("b"), g.AddNet("y")
	stdcell.NAND2.MustInstantiate(g, "u1", map[string]*graph.Net{
		"A": a, "B": b, "Y": y, "VDD": vdd, "GND": gnd,
	})
	// Context: inverters driving a and b, and one loading y.
	stdcell.INV.MustInstantiate(g, "da", map[string]*graph.Net{"A": g.AddNet("pa"), "Y": a, "VDD": vdd, "GND": gnd})
	stdcell.INV.MustInstantiate(g, "db", map[string]*graph.Net{"A": g.AddNet("pb"), "Y": b, "VDD": vdd, "GND": gnd})
	stdcell.INV.MustInstantiate(g, "ly", map[string]*graph.Net{"A": y, "Y": g.AddNet("py"), "VDD": vdd, "GND": gnd})

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

	// The known instance mapping, by construction of the instantiation.
	imageDev := map[string]string{"MP1": "u1.MP1", "MP2": "u1.MP2", "MN1": "u1.MN1", "MN2": "u1.MN2"}
	imageNet := map[string]string{"A": "a", "B": "b", "Y": "y", "n1": "u1.n1"}

	rep := &Result{}
	p1 := newPhase1(m, pat, &rep.Report)

	check := func(stage string) {
		for _, sd := range s.Devices {
			sv := p1.sSpace.DevVID(sd)
			if p1.sState[sv] != p1Valid {
				continue
			}
			gd := g.DeviceByName(imageDev[sd.Name])
			gv := p1.gSpace.DevVID(gd)
			if p1.sLab[sv] != p1.gLab[gv] {
				t.Errorf("%s: valid device %s has label %x, image %s has %x",
					stage, sd.Name, p1.sLab[sv], gd.Name, p1.gLab[gv])
			}
		}
		for _, sn := range s.Nets {
			sv := p1.sSpace.NetVID(sn)
			if p1.sState[sv] != p1Valid {
				continue
			}
			gnet := g.NetByName(imageNet[sn.Name])
			gv := p1.gSpace.NetVID(gnet)
			if p1.sLab[sv] != p1.gLab[gv] {
				t.Errorf("%s: valid net %s has label %x, image %s has %x",
					stage, sn.Name, p1.sLab[sv], gnet.Name, p1.gLab[gv])
			}
		}
	}

	check("initial")
	for round := 0; round < 6; round++ {
		p1.relabelNets()
		p1.corruptNets()
		check("after net relabel")
		if !p1.consistency(false) {
			t.Fatal("consistency failed on a circuit with a planted instance")
		}
		check("after net consistency")
		if p1.allCorrupt(false) {
			break
		}
		p1.relabelDevices()
		p1.corruptDevices()
		check("after device relabel")
		if !p1.consistency(true) {
			t.Fatal("consistency failed on a circuit with a planted instance")
		}
		check("after device consistency")
		if p1.allCorrupt(true) {
			break
		}
	}

	// Also check that the image of the key vertex survives in the CV when
	// Phase I is run to completion (the guarantee below Invariant (1)).
	p1b := newPhase1(m, pat, &rep.Report)
	key, cv, _ := p1b.run()
	if len(cv) == 0 {
		t.Fatal("empty candidate vector for a circuit containing the pattern")
	}
	keyName := pat.space.Name(key)
	img := imageNet[keyName]
	if img == "" {
		img = imageDev[keyName]
	}
	found := false
	for _, v := range cv {
		if m.gSpace.Name(v) == img {
			found = true
		}
	}
	if !found {
		t.Errorf("image %s of key vertex %s missing from CV", img, keyName)
	}
}

// TestPhase1PrunesNonImages checks the consistency-check optimization
// (paper Fig. 4): main-graph device vertices whose type does not occur in
// the pattern are pruned by the very first check.
func TestPhase1PrunesNonImages(t *testing.T) {
	g := graph.New("g")
	x, y, zz := g.AddNet("x"), g.AddNet("y"), g.AddNet("z")
	cls2 := []graph.TermClass{0, 0}
	mos := []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}
	g.MustAddDevice("m1", "nmos", mos, []*graph.Net{x, y, zz})
	g.MustAddDevice("r1", "res", cls2, []*graph.Net{x, y})

	s := graph.New("s")
	sx, sy, sz := s.AddNet("x"), s.AddNet("y"), s.AddNet("z")
	s.MustAddDevice("m", "nmos", mos, []*graph.Net{sx, sy, sz})
	for _, p := range []string{"x", "y", "z"} {
		if err := s.MarkPort(p); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMatcher(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := m.prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Result{}
	p1 := newPhase1(m, pat, &rep.Report)
	if !p1.consistency(true) {
		t.Fatal("device consistency failed")
	}
	rv := p1.gSpace.DevVID(g.DeviceByName("r1"))
	if p1.gState[rv] != g1Pruned {
		t.Error("resistor not pruned by the initial device consistency check")
	}
	mv := p1.gSpace.DevVID(g.DeviceByName("m1"))
	if p1.gState[mv] != g1Active {
		t.Error("matching transistor wrongly pruned")
	}
}

// TestUniqueLabelsPerSeed: two matchers with different seeds assign
// different unique labels but find identical results.
func TestUniqueLabelsPerSeed(t *testing.T) {
	u1 := label.NewUniqueSource(1)
	u2 := label.NewUniqueSource(2)
	if u1.Next() == u2.Next() {
		t.Error("different seeds produced equal first labels")
	}
}
