package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestScratchPoolReuse asserts that the state a shared CSR view carries is
// invisible to results: repeated Finds over one view, which recycle Phase
// II scratch through its pool across different patterns (different
// prematch sets, different touched footprints) and copy the initial
// labeling from its cache, return exactly what Finds over a fresh view per
// run return.  This exercises the clean-state invariant p2region.close()
// maintains — a stale local or mark entry from a previous run would
// corrupt a later candidate's ball.
func TestScratchPoolReuse(t *testing.T) {
	d := gen.RandomLogic(60, 7, 3)
	cells := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.NOR2, stdcell.FA, stdcell.DFF}

	run := func(opts core.Options, cell *stdcell.CellDef) map[string]bool {
		opts.Globals = rails
		res, err := core.Find(d.C, cell.Pattern(), opts)
		if err != nil {
			t.Fatalf("Find(%s): %v", cell.Name, err)
		}
		insts := make(map[string]bool, len(res.Instances))
		for _, in := range res.Instances {
			insts[in.String()] = true
		}
		return insts
	}

	shared := core.NewCSR(d.C)
	// Interleave patterns and repeat the cycle so the pool serves scratch
	// dirtied by a different pattern on most get() calls.
	for round := 0; round < 3; round++ {
		for _, cell := range cells {
			want := run(core.Options{CSR: core.NewCSR(d.C)}, cell)
			got := run(core.Options{CSR: shared}, cell)
			if len(got) != len(want) {
				t.Fatalf("round %d %s: shared view found %d instances, fresh view %d", round, cell.Name, len(got), len(want))
			}
			for sig := range want {
				if !got[sig] {
					t.Fatalf("round %d %s: shared-view run missing instance %s", round, cell.Name, sig)
				}
			}
		}
	}

	// Bind forces the prematch path (fixed seeds at the head of every ball).
	target := d.C.Nets[5].Name
	want := run(core.Options{Bind: map[string]string{"A": target}, CSR: core.NewCSR(d.C)}, stdcell.INV)
	got := run(core.Options{Bind: map[string]string{"A": target}, CSR: shared}, stdcell.INV)
	if len(got) != len(want) {
		t.Fatalf("bind: shared view found %d instances, fresh view %d", len(got), len(want))
	}
	for sig := range want {
		if !got[sig] {
			t.Fatalf("bind: shared-view run missing instance %s", sig)
		}
	}
}

// BenchmarkFindScratch quantifies what sharing a CSR view saves a fresh
// Matcher per run: with its own view, every run builds the view, allocates
// the O(|G|) Phase II arrays and computes the initial labeling; with a
// shared view it recycles the arrays from the view's pool and copies the
// labeling from the view's cache.  The delta in allocs/op is the daemon's
// steady-state win.  The request variant is what subgeminid does per match
// request on rand4000: a fresh Matcher over the resident circuit's shared
// CSR view, a fresh pattern clone, and FindIncremental with nothing to
// replay, so its B/op is the whole per-request matching footprint.
func BenchmarkFindScratch(b *testing.B) {
	b.Run("request", benchmarkMatchRequest)
	d := gen.RandomLogic(400, 16, 5)
	pat := stdcell.NAND2.Pattern()

	for _, cfg := range []struct {
		name string
		view *core.CSR
	}{
		{"own-view", nil},
		{"shared-view", core.NewCSR(d.C)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			find := func() {
				m, err := core.NewMatcher(d.C, core.Options{Globals: rails, CSR: cfg.view})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Find(pat); err != nil {
					b.Fatal(err)
				}
			}
			find()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				find()
			}
		})
	}
}

func benchmarkMatchRequest(b *testing.B) {
	g := gen.RandomLogic(4000, 32, 11).C
	tpl := stdcell.NAND2.Pattern()
	for _, name := range rails {
		g.MarkGlobal(name)
	}
	opts := core.Options{CSR: core.NewCSR(g)}
	run := func() {
		m, err := core.NewMatcher(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.FindIncremental(tpl.Clone(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the view's scratch pool and labeling cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
