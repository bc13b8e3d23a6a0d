package core_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// The CSR view is the handle matchers over one circuit share: it carries
// the Phase II scratch pool and caches the initial Phase I labeling of the
// last global set a run asked for.  These tests hold every run over a
// shared view to a run over a fresh view of the same circuit.

// mapStrings renders each instance's device and net maps by name, in
// instance order.
func mapStrings(res *core.Result) []string {
	out := make([]string, len(res.Instances))
	for i, in := range res.Instances {
		var pairs []string
		for p, g := range in.DevMap {
			pairs = append(pairs, "d "+p.Name+"="+g.Name)
		}
		for p, g := range in.NetMap {
			pairs = append(pairs, "n "+p.Name+"="+g.Name)
		}
		sort.Strings(pairs)
		out[i] = fmt.Sprint(pairs)
	}
	return out
}

// sameAsFreshView fails t unless a Find over view equals a Find over a
// fresh view of g: the same instances in the same order, the same maps,
// and the same Phase I outcome.
func sameAsFreshView(t *testing.T, when string, g *graph.Circuit, view *core.CSR, cell *stdcell.CellDef, opts core.Options) {
	t.Helper()
	want, err := core.Find(g, cell.Pattern(), opts)
	if err != nil {
		t.Fatalf("%s: fresh view: %v", when, err)
	}
	opts.CSR = view
	got, err := core.Find(g, cell.Pattern(), opts)
	if err != nil {
		t.Fatalf("%s: shared view: %v", when, err)
	}
	if msg := runDiff(got, want); msg != "" {
		t.Fatalf("%s, %s: shared view departs from a fresh view: %s", when, cell.Name, msg)
	}
	if g, w := mapStrings(got), mapStrings(want); !slices.Equal(g, w) {
		t.Fatalf("%s, %s: shared view maps %v, fresh view %v", when, cell.Name, g, w)
	}
}

// TestViewLabelingAfterEdits holds the labeling cache to the circuit a
// view describes.  Each csr.Patch view starts with an empty cache, because
// an edit can change net degrees and names: after a batch that drops a
// load from a NAND2's internal net (its degree falls from 3 to 2, so the
// instance comes back) and after batches that swap the names of the two
// rails, a Find over the patched view equals one over a fresh view.  A
// rename keeps the structure, so the view from before it still describes
// the renamed circuit; its cached labeling was computed under the old names
// and must not serve the new ones.
func TestViewLabelingAfterEdits(t *testing.T) {
	c := gen.RandomLogic(120, 8, 41).C
	cells := []*stdcell.CellDef{stdcell.NAND2, stdcell.INV}
	opts := core.Options{Globals: rails}

	// Load the internal net of one NAND2 instance with a resistor.
	res, err := core.Find(c, stdcell.NAND2.Pattern(), opts)
	if err != nil || len(res.Instances) == 0 {
		t.Fatalf("no NAND2 instance to load (err %v)", err)
	}
	var internal string
	for p, g := range res.Instances[0].NetMap {
		if !p.Port && !p.Global {
			internal = g.Name
		}
	}
	if _, err := delta.Apply(c, 1, []delta.Op{{Op: delta.OpAddDevice, Name: "load", Type: "res",
		Classes: []int{0, 0}, Nets: []string{internal, "loadnet"}}}); err != nil {
		t.Fatal(err)
	}
	view := core.NewCSR(c)
	for _, cell := range cells {
		sameAsFreshView(t, "loaded", c, view, cell, opts) // fills the cache
	}

	batches := []struct {
		name string
		ops  []delta.Op
	}{
		{"load removed", []delta.Op{{Op: delta.OpRemoveDevice, Name: "load"}}},
		{"rails swapped", swapRails()},
		{"rails swapped back", swapRails()},
	}
	for i, b := range batches {
		step, err := delta.Apply(c, uint64(i+2), b.ops)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		prev := view
		view, _ = csr.Patch(prev, c, csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New}, step.DirtyDevs, step.DirtyNets)
		for _, cell := range cells {
			sameAsFreshView(t, b.name+", patched view", c, view, cell, opts)
		}
		if prev.Fits(c) {
			for _, cell := range cells {
				sameAsFreshView(t, b.name+", view from before the batch", c, prev, cell, opts)
			}
		}
	}
}

// swapRails renames VDD to GND and GND to VDD.
func swapRails() []delta.Op {
	return []delta.Op{
		{Op: delta.OpRenameNet, Old: "VDD", New: "rail.tmp"},
		{Op: delta.OpRenameNet, Old: "GND", New: "VDD"},
		{Op: delta.OpRenameNet, Old: "rail.tmp", New: "GND"},
	}
}

// TestSharedViewGlobalSets shares one view between concurrent matchers
// whose runs alternate between two global sets, the rails and the rails
// plus two inputs, so each run finds the cache holding the other set's
// labeling about half the time.  Each run returns what a fresh-view run
// returns.  A run with the global fold ablated neither reads nor fills the
// cache: it equals an ablated fresh-view run, and the next run under the
// cached set still copies folded labels.  The ablated run is sequential
// because AblateForTest writes package state.
func TestSharedViewGlobalSets(t *testing.T) {
	c := gen.RandomLogic(80, 8, 13).C
	sets := [][]string{nil, {"in0", "in1"}}
	cells := []*stdcell.CellDef{stdcell.NAND2, stdcell.INV, stdcell.NOR2}
	view := core.NewCSR(c)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				globals := sets[(w+i)%2]
				cell := cells[(w+i)%len(cells)]
				want, err := core.Find(c, cell.Pattern(), core.Options{Globals: globals})
				if err != nil {
					errs <- err.Error()
					return
				}
				got, err := core.Find(c, cell.Pattern(), core.Options{Globals: globals, CSR: view})
				if err != nil {
					errs <- err.Error()
					return
				}
				if msg := runDiff(got, want); msg != "" {
					errs <- fmt.Sprintf("worker %d run %d (%s, globals %v): %s", w, i, cell.Name, globals, msg)
				} else if gm, wm := mapStrings(got), mapStrings(want); !slices.Equal(gm, wm) {
					errs <- fmt.Sprintf("%s, globals %v: maps %v, fresh view %v", cell.Name, globals, gm, wm)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	sameAsFreshView(t, "before the ablated run", c, view, stdcell.NAND2, core.Options{Globals: sets[1]})
	restore := core.AblateForTest(false, true)
	sameAsFreshView(t, "fold ablated", c, view, stdcell.NAND2, core.Options{Globals: sets[1]})
	restore()
	sameAsFreshView(t, "after the ablated run", c, view, stdcell.NAND2, core.Options{Globals: sets[1]})
}
