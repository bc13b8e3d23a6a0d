package sweep_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
	"subgemini/internal/sweep"
)

var rails = []string{"VDD", "GND"}

// testLibrary is a ≥8-pattern slice of the standard-cell library, mixing
// cells the multiplier workload contains many of, a few of, and none of.
func testLibrary() []sweep.Pattern {
	cells := []*stdcell.CellDef{
		stdcell.INV, stdcell.BUF, stdcell.NAND2, stdcell.NAND3,
		stdcell.NOR2, stdcell.AND2, stdcell.XOR2, stdcell.MUX2,
		stdcell.FA, stdcell.DFF,
	}
	lib := make([]sweep.Pattern, len(cells))
	for i, c := range cells {
		lib[i] = sweep.Pattern{Name: c.Name, Template: c.Pattern()}
	}
	return lib
}

// render serializes instances order-sensitively: the differential test
// demands bit-identical instance lists, not merely equal sets.
func render(insts []*core.Instance) string {
	var b strings.Builder
	for _, in := range insts {
		parts := make([]string, 0, len(in.DevMap)+len(in.NetMap))
		for pd, gd := range in.DevMap {
			parts = append(parts, pd.Name+"="+gd.Name)
		}
		for pn, gn := range in.NetMap {
			parts = append(parts, pn.Name+"->"+gn.Name)
		}
		sort.Strings(parts)
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// sequentialFind is the loop sweep replaces: one fresh matcher per
// pattern, nothing shared.
func sequentialFind(t testing.TB, g *graph.Circuit, lib []sweep.Pattern, seed uint64) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(lib))
	for i, p := range lib {
		m, err := core.NewMatcher(g, core.Options{Globals: rails, Seed: seed})
		if err != nil {
			t.Fatalf("sequential matcher %s: %v", p.Name, err)
		}
		res, err := m.Find(p.Template.Clone())
		if err != nil {
			t.Fatalf("sequential find %s: %v", p.Name, err)
		}
		out[i] = res
	}
	return out
}

// TestSweepDifferential: sweep.Run returns bit-identical instances to the
// sequential per-pattern Find loop, for several sweep worker counts.  Run
// under -race this also proves the shared CSR/init-label/scratch state is
// read safely across the pool.
func TestSweepDifferential(t *testing.T) {
	g := gen.ArrayMultiplier(4).C
	lib := testLibrary()
	const seed = 7
	want := sequentialFind(t, g, lib, seed)

	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep, err := sweep.Run(g, lib, sweep.Options{
				Globals: rails, Workers: workers, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != len(lib) {
				t.Fatalf("got %d results, want %d", len(rep.Results), len(lib))
			}
			total := 0
			for i, pr := range rep.Results {
				if pr.Name != lib[i].Name {
					t.Fatalf("result %d is %q, want %q (order must be input order)", i, pr.Name, lib[i].Name)
				}
				got, ref := render(pr.Instances), render(want[i].Instances)
				if got != ref {
					t.Errorf("%s: sweep instances differ from sequential Find\nsweep:\n%s\nsequential:\n%s", pr.Name, got, ref)
				}
				total += len(pr.Instances)
			}
			if total == 0 {
				t.Fatal("sweep found nothing; workload is broken")
			}
			if rep.Runs+rep.Deduped != len(lib) {
				t.Errorf("Runs=%d + Deduped=%d != %d patterns", rep.Runs, rep.Deduped, len(lib))
			}
		})
	}
}

// TestSweepDedup: structurally identical patterns collapse onto one run,
// and the twins' instances are keyed by their own templates yet identical
// in content and order to the representative's.
func TestSweepDedup(t *testing.T) {
	g := gen.ArrayMultiplier(2).C

	renamed := stdcell.NAND2.Pattern().Clone()
	renamed.Name = "NAND2_COPY"
	for _, d := range renamed.Devices {
		d.Name = "x" + d.Name
	}
	lib := []sweep.Pattern{
		{Name: "N1", Template: stdcell.NAND2.Pattern()},
		{Name: "N2", Template: stdcell.NAND2.Pattern()},
		{Name: "N3", Template: renamed},
	}
	rep, err := sweep.Run(g, lib, sweep.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Deduped != 2 {
		t.Fatalf("Runs=%d Deduped=%d, want 1 and 2", rep.Runs, rep.Deduped)
	}
	if a := rep.Results[1].Alias; a != "N1" {
		t.Errorf("N2 alias = %q, want N1", a)
	}
	if a := rep.Results[2].Alias; a != "N1" {
		t.Errorf("N3 alias = %q, want N1", a)
	}
	n1 := rep.Results[0]
	if n1.Alias != "" || len(n1.Instances) == 0 {
		t.Fatalf("representative N1: alias=%q instances=%d", n1.Alias, len(n1.Instances))
	}
	// Same image devices in the same order, keyed by each twin's template.
	imgs := func(insts []*core.Instance) string {
		var b strings.Builder
		for _, in := range insts {
			ds := in.Devices()
			names := make([]string, len(ds))
			for i, d := range ds {
				names[i] = d.Name
			}
			b.WriteString(strings.Join(names, ","))
			b.WriteByte('\n')
		}
		return b.String()
	}
	for i := 1; i < 3; i++ {
		if got, want := imgs(rep.Results[i].Instances), imgs(n1.Instances); got != want {
			t.Errorf("%s image devices differ from representative:\n%s\nvs\n%s", rep.Results[i].Name, got, want)
		}
		for _, in := range rep.Results[i].Instances {
			for pd := range in.DevMap {
				if lib[i].Template.Devices[pd.Index] != pd {
					t.Fatalf("%s instance keyed by foreign device %s", rep.Results[i].Name, pd.Name)
				}
			}
		}
	}

	// A differing port mark breaks structural identity: the matcher treats
	// ports and internal nets differently, so such patterns must not share
	// a run.
	extraPort := stdcell.NAND2.Pattern()
	if err := extraPort.MarkPort("n1"); err != nil {
		t.Fatal(err)
	}
	rep, err = sweep.Run(g, []sweep.Pattern{
		{Name: "N1", Template: stdcell.NAND2.Pattern()},
		{Name: "NP", Template: extraPort},
	}, sweep.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deduped != 0 || rep.Results[1].Alias != "" {
		t.Errorf("port-marked twin deduped (alias %q); port flags must participate in the structural key", rep.Results[1].Alias)
	}
}

// memInc is an in-memory sweep.Incremental: states keyed by pattern
// structure, one dirty set covering "the cached version to now" (nil =
// cold, every run full).  The daemon's real implementation adds version
// bookkeeping; the sweep engine only needs this contract.
type memInc struct {
	mu     sync.Mutex
	states map[string]*core.IncrementalState
	ds     *core.DirtySet
	hits   int
}

func (c *memInc) Lookup(pat *graph.Circuit, opts core.Options) (*core.IncrementalState, *core.DirtySet, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.states[delta.PatternKey(pat, opts)]
	if !ok || c.ds == nil {
		return nil, nil, false
	}
	c.hits++
	return st, c.ds, true
}

func (c *memInc) Store(pat *graph.Circuit, opts core.Options, st *core.IncrementalState) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states[delta.PatternKey(pat, opts)] = st
}

// TestSweepIncremental: a sweep with an Incremental hook populates it on
// the cold run, and after an edit the warm run replays candidates yet
// returns instances bit-identical to a from-scratch sweep of the edited
// circuit.  Workers > 1 plus -race exercises concurrent hook access.
func TestSweepIncremental(t *testing.T) {
	g := gen.ArrayMultiplier(2).C
	lib := testLibrary()
	cache := &memInc{states: map[string]*core.IncrementalState{}}
	opts := sweep.Options{Globals: rails, Workers: 4, Seed: 3, Incremental: cache}

	cold, err := sweep.Run(g, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Replayed != 0 {
		t.Errorf("cold sweep replayed %d candidates", cold.Replayed)
	}
	if len(cache.states) != cold.Runs {
		t.Errorf("cache holds %d states after %d runs", len(cache.states), cold.Runs)
	}

	// Edit the circuit and hand the hook the resulting dirty set.
	step, err := delta.Apply(g, 2, []delta.Op{
		{Op: delta.OpRewirePin, Device: g.Devices[0].Name, Pin: 0, Net: "zz_spare"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := delta.Compose([]*delta.Step{step})
	if err != nil {
		t.Fatal(err)
	}
	cache.ds = ds

	warm, err := sweep.Run(g, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Replayed == 0 {
		t.Error("warm sweep replayed nothing; incremental path inert")
	}
	if cache.hits == 0 {
		t.Error("hook Lookup never hit")
	}

	fresh, err := sweep.Run(g, lib, sweep.Options{Globals: rails, Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lib {
		if got, want := render(warm.Results[i].Instances), render(fresh.Results[i].Instances); got != want {
			t.Errorf("%s: incremental sweep diverges from full sweep\nincremental:\n%s\nfull:\n%s",
				lib[i].Name, got, want)
		}
	}
}

// TestSweepCancel: a firing Cancel hook aborts the sweep with its error.
func TestSweepCancel(t *testing.T) {
	g := gen.ArrayMultiplier(2).C
	stop := errors.New("deadline hit")
	_, err := sweep.Run(g, testLibrary(), sweep.Options{
		Globals: rails,
		Cancel:  func() error { return stop },
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want wrapped %v", err, stop)
	}
}

func TestSweepArgumentErrors(t *testing.T) {
	g := gen.InverterChain(4).C
	if _, err := sweep.Run(nil, testLibrary(), sweep.Options{}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := sweep.Run(g, nil, sweep.Options{}); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := sweep.Run(g, []sweep.Pattern{{Name: "x"}}, sweep.Options{}); err == nil {
		t.Error("nil template accepted")
	}
}
