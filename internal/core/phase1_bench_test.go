package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// BenchmarkPhase1 times candidate generation alone on the E4 suite's
// largest circuit (rand1000: ~6.8k devices of random logic), for the
// production CSR engine and the pointer-walking reference
// (phase1ref_test.go).  The pair quantifies the CSR+worklist win.
func BenchmarkPhase1(b *testing.B) {
	for _, cfg := range []struct {
		name string
		run  phase1Runner
	}{
		{"rand1000/reference", core.RunPhase1RefForTest},
		{"rand1000/csr", core.RunPhase1ForTest},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			d := gen.RandomLogic(1000, 32, 11)
			m, err := core.NewMatcher(d.C, core.Options{Globals: rails})
			if err != nil {
				b.Fatal(err)
			}
			s := stdcell.NAND2.Pattern()
			// Warm the matcher's per-circuit caches (initial labels, CSR
			// view) so iterations measure steady-state Phase I cost.
			if _, cv, _, err := cfg.run(m, s); err != nil || len(cv) == 0 {
				b.Fatalf("warmup: |cv|=%d err=%v", len(cv), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, cv, _, err := cfg.run(m, s); err != nil || len(cv) == 0 {
					b.Fatalf("|cv|=%d err=%v", len(cv), err)
				}
			}
		})
	}
}
