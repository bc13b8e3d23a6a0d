package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgemini/internal/baseline"
	"subgemini/internal/core"
	"subgemini/internal/gemini"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// TestQuickCoreEqualsBaseline is the central correctness property: on
// arbitrary random circuits, SubGemini and the exhaustive DFS matcher find
// exactly the same instance sets, for every prime pattern.  The baseline
// shares no labeling code with the engines, so each configuration — the
// sequential matcher, FindParallel, and the whole-graph Phase II reference
// (phase2ref_test.go) — is checked against it independently rather than
// only against each other.
func TestQuickCoreEqualsBaseline(t *testing.T) {
	patterns := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.NOR2, stdcell.XOR2, stdcell.AOI21, stdcell.MUX2}
	engines := []struct {
		name string
		find func(m *core.Matcher, s *graph.Circuit) (*core.Result, error)
	}{
		{"find", (*core.Matcher).Find},
		{"parallel2", func(m *core.Matcher, s *graph.Circuit) (*core.Result, error) { return m.FindParallel(s, 2) }},
		{"phase2-ref", core.FindPhase2RefForTest},
	}
	prop := func(seed int64, nGates uint8) bool {
		d := gen.RandomLogic(10+int(nGates%30), 5, seed)
		for _, pat := range patterns {
			b, err := baseline.Find(d.C.Clone(), pat.Pattern(), baseline.Options{Globals: rails})
			if err != nil {
				t.Logf("seed %d: baseline error: %v", seed, err)
				return false
			}
			bs := instanceSets(b.Instances)
			for _, eng := range engines {
				m, err := core.NewMatcher(d.C.Clone(), core.Options{Globals: rails})
				if err != nil {
					t.Logf("seed %d: NewMatcher: %v", seed, err)
					return false
				}
				c, err := eng.find(m, pat.Pattern())
				if err != nil {
					t.Logf("seed %d: %s error: %v", seed, eng.name, err)
					return false
				}
				cs := instanceSets(c.Instances)
				if len(cs) != len(bs) {
					t.Logf("seed %d gates %d pattern %s: %s %d vs baseline %d",
						seed, 10+int(nGates%30), pat.Name, eng.name, len(cs), len(bs))
					return false
				}
				for sig := range bs {
					if !cs[sig] {
						t.Logf("seed %d pattern %s: %s misses a baseline instance", seed, pat.Name, eng.name)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPlantAndFind plants k disjoint copies of a pattern into random
// background logic and checks the matcher reports at least k instances and
// that every planted copy is among them.
func TestQuickPlantAndFind(t *testing.T) {
	prop := func(seed int64, kRaw, pick uint8) bool {
		k := 1 + int(kRaw%5)
		cells := []*stdcell.CellDef{stdcell.NAND3, stdcell.XOR2, stdcell.FA, stdcell.DFF}
		cell := cells[int(pick)%len(cells)]
		d := gen.RandomLogic(15, 6, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		vdd, gnd := d.C.NetByName("VDD"), d.C.NetByName("GND")
		planted := make([]map[string]bool, 0, k)
		// Inputs are tapped only from nets that existed before planting:
		// tapping another planted copy's internal net would add a load and
		// destroy that copy's induced-subgraph property.
		pool := append([]*graph.Net(nil), d.C.Nets...)
		for i := 0; i < k; i++ {
			conns := map[string]*graph.Net{"VDD": vdd, "GND": gnd}
			inst := "plant" + string(rune('0'+i))
			// Pattern port images must be injective, so each input port
			// needs a distinct driver net, and none may be a rail (a
			// tied-off cell is structurally a different cell).
			used := map[*graph.Net]bool{vdd: true, gnd: true}
			for _, port := range cell.Ports {
				switch port {
				case "VDD", "GND":
				case "Y", "Q", "S", "CO":
					conns[port] = d.C.AddNet(inst + "." + port + ".out")
				default:
					var n *graph.Net
					for tries := 0; tries < 50; tries++ {
						cand := pool[rng.Intn(len(pool))]
						if !used[cand] {
							n = cand
							break
						}
					}
					if n == nil {
						n = d.C.AddNet(inst + "." + port + ".in")
					}
					used[n] = true
					conns[port] = n
				}
			}
			cell.MustInstantiate(d.C, inst, conns)
			devs := map[string]bool{}
			for _, m := range cell.Mos {
				devs[inst+"."+m.Name] = true
			}
			planted = append(planted, devs)
		}
		if err := d.C.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		res, err := core.Find(d.C, cell.Pattern(), core.Options{Globals: rails})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		found := make([]map[string]bool, 0, len(res.Instances))
		for _, inst := range res.Instances {
			devs := map[string]bool{}
			for _, gd := range inst.DevMap {
				devs[gd.Name] = true
			}
			found = append(found, devs)
		}
		for i, want := range planted {
			ok := false
			for _, got := range found {
				if setsEqual(want, got) {
					ok = true
					break
				}
			}
			if !ok {
				t.Logf("seed %d: planted %s copy %d not found (%d found total)", seed, cell.Name, i, len(found))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickPermutationInvariance: the instance count must not depend on
// device/net declaration order or names.
func TestQuickPermutationInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		d := gen.RandomLogic(25, 6, seed)
		d.C.MarkGlobal("VDD")
		d.C.MarkGlobal("GND")
		perm := permute(d.C, seed*31+7)
		for _, pat := range []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.XOR2} {
			a, err := core.Find(d.C.Clone(), pat.Pattern(), core.Options{Globals: rails})
			if err != nil {
				return false
			}
			b, err := core.Find(perm.Clone(), pat.Pattern(), core.Options{Globals: rails})
			if err != nil {
				return false
			}
			if len(a.Instances) != len(b.Instances) {
				t.Logf("seed %d pattern %s: %d vs %d after permutation",
					seed, pat.Name, len(a.Instances), len(b.Instances))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneIsomorphic: Clone must produce a Gemini-isomorphic circuit
// for arbitrary generated designs.
func TestQuickCloneIsomorphic(t *testing.T) {
	prop := func(seed int64) bool {
		d := gen.RandomLogic(20, 5, seed)
		res, err := gemini.Compare(d.C, d.C.Clone(), gemini.Options{Globals: rails})
		if err != nil {
			return false
		}
		return res.Isomorphic
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// permute rebuilds c with randomized vertex order and renamed non-global
// nets/devices.
func permute(c *graph.Circuit, seed int64) *graph.Circuit {
	rng := rand.New(rand.NewSource(seed))
	out := graph.New(c.Name + "_perm")
	rename := func(n *graph.Net) string {
		if n.Global {
			return n.Name
		}
		return "p_" + n.Name
	}
	for _, i := range rng.Perm(c.NumNets()) {
		n := c.Nets[i]
		nn := out.AddNet(rename(n))
		nn.Port = n.Port
		nn.Global = n.Global
	}
	for _, i := range rng.Perm(c.NumDevices()) {
		d := c.Devices[i]
		classes := make([]graph.TermClass, len(d.Pins))
		nets := make([]*graph.Net, len(d.Pins))
		for j, p := range d.Pins {
			classes[j] = p.Class
			nets[j] = out.AddNet(rename(p.Net))
		}
		out.MustAddDevice("p_"+d.Name, d.Type, classes, nets)
	}
	return out
}
