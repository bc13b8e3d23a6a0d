package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json the regression gate reads.
type spec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

// boundSpec is one end-to-end metric's regression rule: the share of the
// base median by which the metric may get worse.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of the regression gate.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minBaseRuns is the fewest base runs whose spread the gate trusts; with
// fewer, run-to-run noise is unknown and no verdict can be reached.
const minBaseRuns = 3

// verdict compares one metric's runs on the base and new sides.  A change
// beyond the bound is worse or better; anything inside it is the same.
// When the base side's own spread is unknown or wider than the bound, the
// comparison cannot resolve a regression, so the verdict is unresolved
// unless every new run beats every base run of a measured spread.
func verdict(base, next []float64, b boundSpec) string {
	higher := b.Better == "higher"
	if len(base) < minBaseRuns {
		return verdictUnresolved
	}
	if spread(base) > b.Bound {
		if higher && slices.Min(next) > slices.Max(base) || !higher && slices.Max(next) < slices.Min(base) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	bm, nm := median(base), median(next)
	worse := (nm - bm) / bm
	if higher {
		worse = -worse
	}
	switch {
	case worse > b.Bound:
		return verdictWorse
	case worse < -b.Bound:
		return verdictBetter
	}
	return verdictSame
}

// loadRuns reads end-to-end result files into workload → metric → values,
// one value per run.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compareMain implements -compare: base files before "--", new files after
// it.  It prints one row per workload and end-to-end metric and exits 1
// when any row is worse or unresolved.
func compareMain(specPath string, args []string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i <= 0 || i == len(args)-1 {
		fmt.Fprintln(stderr, "usage: -compare base.json... -- new.json...")
		return 2
	}
	b, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", specPath, err)
		return 2
	}
	base, err := loadRuns(args[:i])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	next, err := loadRuns(args[i+1:])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-12s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, wl := range sortedKeys(base) {
		if next[wl] == nil {
			continue
		}
		for _, bs := range sp.EndToEnd {
			bv, nv := base[wl][bs.Name], next[wl][bs.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(bv, nv, bs)
			if v == verdictWorse || v == verdictUnresolved {
				status = 1
			}
			bm, nm := median(bv), median(nv)
			fmt.Fprintf(stdout, "%-12s %-20s %12.4g %12.4g %+7.1f%% %5.0f%%  %s\n",
				wl, bs.Name, bm, nm, 100*(nm-bm)/bm, 100*bs.Bound, v)
		}
	}
	return status
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
