package core_test

import (
	"bytes"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestFindParallelMatchesSequential: the parallel matcher must report
// exactly the sequential matcher's instance sets on every workload, for
// several worker counts.
func TestFindParallelMatchesSequential(t *testing.T) {
	designs := []*gen.Design{
		gen.RippleAdder(32),
		gen.SRAMArray(6, 6),
		gen.RandomLogic(200, 16, 5),
	}
	patterns := []*stdcell.CellDef{stdcell.FA, stdcell.SRAM6T, stdcell.NAND2, stdcell.INV}
	for _, d := range designs {
		for _, pat := range patterns {
			seq, err := core.Find(d.C.Clone(), pat.Pattern(), core.Options{Globals: rails})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				m, err := core.NewMatcher(d.C.Clone(), core.Options{Globals: rails})
				if err != nil {
					t.Fatal(err)
				}
				par, err := m.FindParallel(pat.Pattern(), workers)
				if err != nil {
					t.Fatal(err)
				}
				ss, ps := instanceSets(seq.Instances), instanceSets(par.Instances)
				if len(ss) != len(ps) {
					t.Errorf("%s in %s (%d workers): parallel found %d, sequential %d",
						pat.Name, d.C.Name, workers, len(ps), len(ss))
					continue
				}
				for sig := range ss {
					if !ps[sig] {
						t.Errorf("%s in %s (%d workers): instance missing from parallel result", pat.Name, d.C.Name, workers)
					}
				}
			}
		}
	}
}

// TestFindParallelDeterministic: same inputs, same worker count, same
// ordered result.
func TestFindParallelDeterministic(t *testing.T) {
	d := gen.RippleAdder(64)
	runOnce := func() []string {
		m, err := core.NewMatcher(d.C.Clone(), core.Options{Globals: rails})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.FindParallel(stdcell.FA.Pattern(), 4)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, inst := range res.Instances {
			names = append(names, inst.Devices()[0].Name)
		}
		return names
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different instance counts across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instance order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestFindParallelPolicyRestrictions(t *testing.T) {
	d := gen.InverterChain(4)
	m, err := core.NewMatcher(d.C, core.Options{Globals: rails, Policy: core.NonOverlapping})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindParallel(stdcell.INV.Pattern(), 4); err == nil {
		t.Error("NonOverlapping accepted by FindParallel")
	}
	m2, err := core.NewMatcher(d.C, core.Options{Globals: rails, MaxInstances: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.FindParallel(stdcell.INV.Pattern(), 4); err == nil {
		t.Error("MaxInstances accepted by FindParallel")
	}
}

func TestFindParallelEmptyAndSingleWorker(t *testing.T) {
	d := gen.InverterChain(5)
	m, err := core.NewMatcher(d.C.Clone(), core.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	// workers=1 falls back to the sequential path.
	res, err := m.FindParallel(stdcell.INV.Pattern(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 5 {
		t.Errorf("1 worker: found %d, want 5", len(res.Instances))
	}
	// A pattern with no instances parallelizes to an empty result.
	res, err = m.FindParallel(stdcell.FA.Pattern(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Errorf("found %d FAs in an inverter chain", len(res.Instances))
	}
}

// TestFindParallelTraceTableMatchesFind: a TraceTable writer sends
// FindParallel to the sequential matcher, so its rendering — the Phase I
// table included — equals Find's byte for byte, and no two workers write
// the shared writer at once (make race runs this under the detector).
func TestFindParallelTraceTableMatchesFind(t *testing.T) {
	d := gen.RippleAdder(4)
	var want, got bytes.Buffer
	seq, err := core.Find(d.C.Clone(), stdcell.FA.Pattern(), core.Options{Globals: rails, TraceTable: &want})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Report.Candidates < 2 {
		t.Fatalf("workload has %d candidates; it needs several to reach the workers", seq.Report.Candidates)
	}
	m, err := core.NewMatcher(d.C.Clone(), core.Options{Globals: rails, TraceTable: &got})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindParallel(stdcell.FA.Pattern(), 2); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("FindParallel rendered %d bytes of tables, Find %d; they differ:\n%s",
			got.Len(), want.Len(), got.String())
	}
}
