package core_test

import (
	"slices"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/label"
	"subgemini/internal/stdcell"
)

// TestInitMainLabelsMatchesNewInitLabels pins the flat initial-label pass
// a run computes over the CSR view to the pointer-walking NewInitLabels,
// label for label, on random circuits with and without global rails and
// with the global fold ablated (device labels then drop the rail fold).  The
// Phase I differential cannot catch a slip here: its reference starts from
// the same initial labels.
func TestInitMainLabelsMatchesNewInitLabels(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, tc := range []struct {
			name    string
			globals []string
			ablate  bool
		}{
			{"rails", rails, false},
			{"no-globals", nil, false},
			{"rails-ablated", rails, true},
		} {
			g := gen.RandomLogic(20+int(seed)*15, 6, seed).C.Clone()
			m, err := core.NewMatcher(g, core.Options{Globals: tc.globals})
			if err != nil {
				t.Fatal(err)
			}
			pat := stdcell.NAND2.Pattern()
			if tc.globals == nil {
				// Keep the pattern's rails from marking the circuit's.
				for _, n := range pat.Nets {
					n.Global = false
				}
			}
			restore := core.AblateForTest(false, tc.ablate)
			got, global, err := core.InitialMainLabelsForTest(m, pat)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			want := core.NewInitLabels(g, tc.globals...)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d labels, want %d", seed, tc.name, len(got), len(want))
			}
			nd := g.NumDevices()
			nGlobal := 0
			for v := range want {
				w := want[v]
				if v < nd && tc.ablate {
					w = label.TypeLabel(g.Devices[v].Type)
				}
				if got[v] != w {
					t.Fatalf("seed %d %s: label of vertex %d = %#x, want %#x", seed, tc.name, v, got[v], w)
				}
				if v >= nd && global[v] != slices.Contains(tc.globals, g.Nets[v-nd].Name) {
					t.Fatalf("seed %d %s: net %s global flag %v, want %v", seed, tc.name, g.Nets[v-nd].Name, global[v], !global[v])
				}
				if global[v] {
					nGlobal++
				}
			}
			if (nGlobal > 0) != (tc.globals != nil) {
				t.Fatalf("seed %d %s: %d global nets", seed, tc.name, nGlobal)
			}
		}
	}
}
