package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestScratchPoolReuse asserts that a shared ScratchPool is invisible to
// results: repeated Finds that recycle Phase II scratch across different
// patterns (different prematch sets, different touched footprints) return
// exactly what fresh-allocating Finds return.  This exercises the
// clean-state invariant phase2.close() maintains — a stale gLab/gMatch/
// fixedG entry from a previous run would corrupt a later candidate walk.
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

	var pool core.ScratchPool
	// Interleave patterns and repeat the cycle so the pool serves scratch
	// dirtied by a different pattern on most get() calls.
	for round := 0; round < 3; round++ {
		for _, cell := range cells {
			want := run(core.Options{}, cell)
			got := run(core.Options{Scratch: &pool}, cell)
			if len(got) != len(want) {
				t.Fatalf("round %d %s: pooled found %d instances, fresh %d", round, cell.Name, len(got), len(want))
			}
			for sig := range want {
				if !got[sig] {
					t.Fatalf("round %d %s: pooled run missing instance %s", round, cell.Name, sig)
				}
			}
		}
	}

	// Bind forces the prematch path (fixedGList cleanup in close()).
	target := d.C.Nets[5].Name
	want := run(core.Options{Bind: map[string]string{"A": target}}, stdcell.INV)
	got := run(core.Options{Bind: map[string]string{"A": target}, Scratch: &pool}, stdcell.INV)
	if len(got) != len(want) {
		t.Fatalf("bind: pooled found %d instances, fresh %d", len(got), len(want))
	}
	for sig := range want {
		if !got[sig] {
			t.Fatalf("bind: pooled run missing instance %s", sig)
		}
	}
}

// BenchmarkFindScratch quantifies what Options.Scratch saves: the fresh
// variant allocates the O(|G|) Phase II arrays on every candidate batch,
// the pooled variant recycles them.  The delta in allocs/op is the
// daemon's steady-state win.  The request variant is what subgeminid does
// per match request on rand4000: a fresh Matcher over the resident
// circuit's shared CSR view and scratch pool, a fresh pattern clone, and
// FindIncremental with nothing to replay, so its B/op is the whole
// per-request matching footprint.
func BenchmarkFindScratch(b *testing.B) {
	b.Run("request", benchmarkMatchRequest)
	d := gen.RandomLogic(400, 16, 5)
	pat := stdcell.NAND2.Pattern()

	for _, cfg := range []struct {
		name string
		mk   func() core.Options
	}{
		{"fresh", func() core.Options { return core.Options{Globals: rails} }},
		{"pooled", func() core.Options {
			var pool core.ScratchPool
			return core.Options{Globals: rails, Scratch: &pool}
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := cfg.mk()
			m, err := core.NewMatcher(d.C, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Find(pat); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Find(pat); err != nil {
					b.Fatal(err)
				}
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
	opts := core.Options{CSR: core.NewCSR(g), Scratch: new(core.ScratchPool)}
	run := func() {
		m, err := core.NewMatcher(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.FindIncremental(tpl.Clone(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
