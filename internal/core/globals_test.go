package core_test

import (
	"slices"
	"strings"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/sweep"
)

// chipSrc is one NAND2 feeding one INV, with declared rails.
const chipSrc = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z y VDD pmos
MN3 z y GND nmos
.END
`

// invgSrc is an inverter pattern that declares its own rails.
const invgSrc = `
.GLOBAL VDD GND
.SUBCKT INVG A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
`

// TestRunGlobalsLeaveCircuitsUnmarked: a run's special signals apply to
// that run only.  Find, FindIncremental, FindParallel and sweep.Run with an
// extra global change no Net.Global flag of either circuit, and a later run
// without it answers exactly as on freshly parsed copies.
func TestRunGlobalsLeaveCircuitsUnmarked(t *testing.T) {
	var randSrc strings.Builder
	if err := netlist.WriteCircuit(&randSrc, gen.RandomLogic(40, 5, 11).C); err != nil {
		t.Fatal(err)
	}
	parse := func(src, name string, pattern bool) *graph.Circuit {
		t.Helper()
		f, err := netlist.ParseString(src, name)
		if err != nil {
			t.Fatal(err)
		}
		var c *graph.Circuit
		if pattern {
			c, err = f.Pattern(name)
		} else {
			c, err = f.MainCircuit(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	flags := func(c *graph.Circuit) []bool {
		out := make([]bool, len(c.Nets))
		for i, n := range c.Nets {
			out[i] = n.Global
		}
		return out
	}
	// The first extra global names a main-circuit net; the rand40 case
	// also names a pattern port.
	for _, tc := range []struct {
		name          string
		main, pattern func() *graph.Circuit
		extra         []string
	}{
		{"chip/INVG+y",
			func() *graph.Circuit { return parse(chipSrc, "chip", false) },
			func() *graph.Circuit { return parse(invgSrc, "INVG", true) },
			[]string{"y"}},
		{"rand40/INVG+w0,A",
			func() *graph.Circuit { return parse(randSrc.String(), "rand40", false) },
			func() *graph.Circuit { return parse(invgSrc, "INVG", true) },
			[]string{"w0", "A"}},
	} {
		g, s := tc.main(), tc.pattern()
		if g.NetByName(tc.extra[0]) == nil {
			t.Fatalf("%s: the main circuit has no net %s", tc.name, tc.extra[0])
		}
		gFlags, sFlags := flags(g), flags(s)
		opts := core.Options{Globals: tc.extra}
		runs := []struct {
			what string
			run  func() error
		}{
			{"Find", func() error { _, err := core.Find(g, s, opts); return err }},
			{"FindIncremental", func() error {
				m, err := core.NewMatcher(g, opts)
				if err == nil {
					_, _, err = m.FindIncremental(s, nil, nil)
				}
				return err
			}},
			{"FindParallel", func() error {
				m, err := core.NewMatcher(g, opts)
				if err == nil {
					_, err = m.FindParallel(s, 2)
				}
				return err
			}},
			{"sweep.Run", func() error {
				_, err := sweep.Run(g, []sweep.Pattern{{Name: s.Name, Template: s}}, sweep.Options{Globals: tc.extra, Workers: 2})
				return err
			}},
		}
		for _, r := range runs {
			if err := r.run(); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, r.what, err)
			}
			if got := flags(g); !slices.Equal(got, gFlags) {
				t.Errorf("%s: %s changed the main circuit's global flags", tc.name, r.what)
			}
			if got := flags(s); !slices.Equal(got, sFlags) {
				t.Errorf("%s: %s changed the pattern's global flags", tc.name, r.what)
			}
		}
		for _, extra := range [][]string{nil, {"VDD"}} {
			got := findOrdered(t, g, s, core.Options{Globals: extra})
			want := findOrdered(t, tc.main(), tc.pattern(), core.Options{Globals: extra})
			if !slices.Equal(got, want) {
				t.Errorf("%s: after the runs, Globals %v finds %v; freshly parsed copies give %v", tc.name, extra, got, want)
			}
		}
	}
}
