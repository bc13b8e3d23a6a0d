// Benchtab regenerates the paper's evaluation tables and figures
// (DESIGN.md experiments E4–E9) as text tables.
//
// Usage:
//
//	benchtab [-table results|scaling|baseline|ablation|coverage|phase1|sweep|all] [-quick] [-json out.json]
//
// Absolute times are machine-dependent; the shapes the paper claims —
// instance counts, tight candidate vectors, flat time-per-matched-device,
// and a large margin over the naive matcher — are what EXPERIMENTS.md
// records.
//
// With -json, the selected tables are additionally written to a file as
// one JSON document (schema "subgemini-benchtab/v1", documented in
// EXPERIMENTS.md), so successive runs can be archived as BENCH_*.json and
// compared across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"subgemini/internal/bench"
	"subgemini/internal/stats"
)

// jsonOutput is the -json document: one optional section per table, plus
// the summed matcher reports of the results suite.
type jsonOutput struct {
	Schema        string              `json:"schema"`
	Quick         bool                `json:"quick"`
	Results       []bench.Row         `json:"results,omitempty"`
	ResultsTotals *stats.Snapshot     `json:"results_totals,omitempty"`
	Scaling       []bench.ScalePoint  `json:"scaling,omitempty"`
	Baseline      []bench.BaselineRow `json:"baseline,omitempty"`
	Ablation      []bench.AblationRow `json:"ablation,omitempty"`
	Coverage      []bench.CoverageRow `json:"coverage,omitempty"`
	Phase1        []bench.Phase1Row   `json:"phase1,omitempty"`
	Sweep         []bench.SweepRow    `json:"sweep,omitempty"`
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: results, scaling, baseline, ablation, coverage, phase1, sweep, all")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	jsonPath := flag.String("json", "", "also write the selected tables to this file as JSON")
	flag.Parse()

	out := jsonOutput{Schema: "subgemini-benchtab/v1", Quick: *quick}
	run := func(name string, fn func() error) {
		switch *table {
		case name, "all":
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
	}
	run("results", func() error {
		rows, totals, err := results(*quick)
		out.Results, out.ResultsTotals = rows, totals
		return err
	})
	run("scaling", func() error {
		pts, err := scaling(*quick)
		out.Scaling = pts
		return err
	})
	run("baseline", func() error {
		rows, err := baselineCmp()
		out.Baseline = rows
		return err
	})
	run("ablation", func() error {
		rows, err := ablation()
		out.Ablation = rows
		return err
	})
	run("coverage", func() error {
		rows, err := coverage()
		out.Coverage = rows
		return err
	})
	run("phase1", func() error {
		rows, err := phase1(*quick)
		out.Phase1 = rows
		return err
	})
	run("sweep", func() error {
		rows, err := sweepTable(*quick)
		out.Sweep = rows
		return err
	})

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func coverage() ([]bench.CoverageRow, error) {
	rows, err := bench.ExtractionCoverage()
	if err != nil {
		return nil, err
	}
	fmt.Println("== E9: ad hoc series-parallel recognizer vs SubGemini library extraction ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tMOS devices\tadhoc gates (named)\tadhoc coverage\tsubgemini cells\tsubgemini coverage\tadhoc time\tsubgemini time\tworkload")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d (%d)\t%.0f%%\t%d\t%.0f%%\t%v\t%v\t%s\n",
			r.Circuit, r.Devices, r.AdhocGates, r.AdhocNamed, r.AdhocCover*100,
			r.SubgCells, r.SubgCover*100, round(r.AdhocTime), round(r.SubgTime), r.Description)
	}
	w.Flush()
	fmt.Println("(the ad hoc method cannot name multi-stage cells and loses pass-transistor structure entirely; paper §I)")
	fmt.Println()
	return rows, nil
}

func results(quick bool) ([]bench.Row, *stats.Snapshot, error) {
	suite := bench.Suite(1)
	if quick && len(suite) > 5 {
		suite = suite[:5]
	}
	var rows []bench.Row
	var agg stats.Aggregate
	for _, w := range suite {
		row, err := bench.Run(w)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		agg.Add(&row.Report)
	}
	fmt.Println("== E4: results table (per circuit/pattern pair) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tdevices\tnets\tpattern\tfound\texpected\t|CV|\tmatched devs\tphase1\tphase2\ttotal\tper matched dev")
	for _, r := range rows {
		status := ""
		if r.Found != r.Expected {
			status = "  <-- MISMATCH"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%v%s\n",
			r.Circuit, r.Devices, r.Nets, r.Pattern, r.Found, r.Expected, r.CVSize,
			r.Matched, round(r.P1), round(r.P2), round(r.Total), round(r.PerDevice), status)
	}
	w.Flush()
	snap := agg.Snapshot()
	fmt.Printf("totals: %d runs, %d instances, %d matched devices, %d candidates, %d guesses, %d backtracks, %s total\n",
		snap.Runs, snap.Sum.Instances, snap.Sum.MatchedDevices, snap.Sum.Candidates,
		snap.Sum.Guesses, snap.Sum.Backtracks, round(snap.Sum.Total()))
	fmt.Println()
	return rows, &snap, nil
}

func scaling(quick bool) ([]bench.ScalePoint, error) {
	pts, err := bench.ScalingSeries(quick)
	if err != nil {
		return nil, err
	}
	fmt.Println("== E5: scaling figure (linearity in matched devices) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "series\tparam\tdevices\tinstances\tmatched devs\ttotal\tus per matched dev")
	last := ""
	for _, p := range pts {
		if p.Series != last {
			if last != "" {
				fmt.Fprintln(w, "\t\t\t\t\t\t")
			}
			last = p.Series
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%v\t%.3f\n",
			p.Series, p.Param, p.Devices, p.Instances, p.Matched, round(p.Total), p.PerDevice)
	}
	w.Flush()
	fmt.Println("(linear scaling <=> the last column stays roughly flat within each series)")
	fmt.Println()
	return pts, nil
}

func baselineCmp() ([]bench.BaselineRow, error) {
	rows, err := bench.BaselineComparison(1)
	if err != nil {
		return nil, err
	}
	fmt.Println("== E6: SubGemini vs exhaustive DFS ([6]-style) and pruned DFS ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tdevices\tpattern\tinstances\tsubgemini\tpruned DFS\tplain DFS\tplain steps\tspeedup vs plain")
	for _, r := range rows {
		plain := round(r.Plain)
		steps := fmt.Sprintf("%d", r.PlainSteps)
		if r.PlainAborted {
			plain = ">" + plain
			steps = ">" + steps + " (cut off)"
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%v\t%v\t%s\t%s\t%.1fx\n",
			r.Circuit, r.Devices, r.Pattern, r.Instances, round(r.SubGemini), round(r.Pruned), plain, steps, r.Speedup)
	}
	w.Flush()
	fmt.Println()
	return rows, nil
}

func ablation() ([]bench.AblationRow, error) {
	rows, err := bench.Ablation()
	if err != nil {
		return nil, err
	}
	fmt.Println("== E7/E8: special-signal ablation and early abort ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "case\t|CV|\tinstances\ttotal\tnote")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%s\n", r.Case, r.CVSize, r.Instances, round(r.Total), r.Note)
	}
	w.Flush()
	fmt.Println()
	return rows, nil
}

func phase1(quick bool) ([]bench.Phase1Row, error) {
	rows, err := bench.Phase1Scaling(quick)
	if err != nil {
		return nil, err
	}
	fmt.Println("== Phase I across circuit sizes ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tdevices\tpattern\tpasses\tpruned\t|CV|\tfound\tphase1 (min)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%v\n",
			r.Circuit, r.Devices, r.Pattern, r.Passes, r.Pruned, r.CVSize, r.Found, round(r.P1))
	}
	w.Flush()
	fmt.Println()
	return rows, nil
}

func sweepTable(quick bool) ([]bench.SweepRow, error) {
	rows, err := bench.SweepScaling(quick)
	if err != nil {
		return nil, err
	}
	fmt.Println("== Library sweep: one amortized run vs a sequential matcher loop ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tdevices\tpatterns\tworkers\tinstances\tdeduped\tsequential\tsweep\tspeedup")
	last := ""
	for _, r := range rows {
		if r.Circuit != last {
			if last != "" {
				fmt.Fprintln(w, "\t\t\t\t\t\t\t\t")
			}
			last = r.Circuit
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%.2fx\n",
			r.Circuit, r.Devices, r.Patterns, r.Workers, r.Instances, r.Deduped,
			round(r.Sequential), round(r.Sweep), r.Speedup)
	}
	w.Flush()
	fmt.Println("(per-pattern instance counts are checked against the sequential loop; worker rows need real cores to win)")
	fmt.Println()
	return rows, nil
}

func round(d interface{ Microseconds() int64 }) string {
	us := d.Microseconds()
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
