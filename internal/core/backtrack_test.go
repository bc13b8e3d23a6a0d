package core_test

import (
	"strings"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/obs"
)

// TestBacktracking: the pass-transistor fabric forces wrong guesses that
// must be undone (the search still converges to the planted chain).
func TestBacktracking(t *testing.T) {
	d := gen.SwitchGrid(6, 6)
	res, err := core.Find(d.C, gen.PassChainPattern(6), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1 (report: %s)", len(res.Instances), res.Report.String())
	}
	if res.Report.Guesses == 0 {
		t.Error("expected guesses in the symmetric fabric")
	}
}

// TestMaxGuessDepth: an artificially tight guess budget (no guess at all)
// makes symmetric searches fail soundly (no extra instances, no error, no
// hang), and every guess refused at the bound is counted — in the report,
// summed across FindParallel's workers, and flagged on the candidate's
// trace span.
func TestMaxGuessDepth(t *testing.T) {
	d := gen.SwitchGrid(6, 8)
	deep, err := core.Find(d.C.Clone(), gen.PassChainPattern(8), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.Instances) != 1 {
		t.Fatalf("default depth found %d, want 1", len(deep.Instances))
	}
	if deep.Report.GuessLimitHits != 0 {
		t.Errorf("default depth hit the guess bound %d times, want 0", deep.Report.GuessLimitHits)
	}

	defer core.SetGuessDepthForTest(0)()
	tl := obs.NewTrace("shallow")
	shallow, err := core.Find(d.C.Clone(), gen.PassChainPattern(8), core.Options{Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	if len(shallow.Instances) > len(deep.Instances) {
		t.Errorf("shallow depth found more instances (%d) than the full search (%d)",
			len(shallow.Instances), len(deep.Instances))
	}
	if shallow.Report.GuessLimitHits == 0 {
		t.Error("depth-0 search reports no guess-limit hits")
	}
	if !strings.Contains(shallow.Report.String(), "guessLimitHits=") {
		t.Errorf("report %q does not show the guess-limit hits", shallow.Report.String())
	}
	limited := 0
	for _, sp := range tl.JSON().Spans {
		if sp.Kind == obs.KindCandidate && sp.Attrs["guess_limited"] == "true" {
			limited++
		}
	}
	if limited == 0 {
		t.Error("no candidate span is flagged guess_limited")
	}

	m, err := core.NewMatcher(d.C.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.FindParallel(gen.PassChainPattern(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Report.GuessLimitHits != shallow.Report.GuessLimitHits {
		t.Errorf("FindParallel summed %d guess-limit hits, Find counted %d",
			par.Report.GuessLimitHits, shallow.Report.GuessLimitHits)
	}
}
