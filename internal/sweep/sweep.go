// Package sweep is the library-sweep engine: it matches a named set of
// patterns against one main circuit in a single run, amortizing the work
// that a sequential per-pattern Find loop repeats per pattern.
//
// The headline SubGemini workload (paper §VI) is not one pattern against
// one circuit — it is an entire cell library swept over a netlist.  A
// naive loop pays three per-pattern costs that do not depend on the
// pattern at all: building the main graph's CSR view, computing its
// initial Phase I labeling, and allocating Phase II scratch state.  Run
// shares one view (core.Options.CSR) across all per-pattern matchers, and
// the view carries the other two: it caches the initial labeling of the
// sweep's global set, which every per-pattern run shares, and its scratch
// pool recycles Phase II state.  Run then schedules the per-pattern Phase I
// refinement + Phase II over a bounded worker pool.
//
// Patterns that are structurally identical (same devices, terminal
// classes, connectivity, port and global marks — only names differing) are
// deduplicated: one representative is matched and the others' instances
// are derived from its result by the index correspondence, so a library
// holding the same cell under three names pays for one match.
//
// Results are deterministic: each per-pattern run is bit-for-bit
// reproducible (fixed Seed), runs are independent, and
// the report lists patterns in input order — worker count and scheduling
// never change the output.
//
// Sweeps always use MatchAll semantics.  NonOverlapping consumes matched
// devices run by run, so its result depends on pattern order; across a
// concurrently matched library there is no principled order, and callers
// that need consumption (iterated extraction) must sequence mutations
// themselves — see internal/extract.
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
)

func init() {
	faults.Register("sweep.worker", "per-pattern match inside a sweep worker (error fails that pattern and the sweep)")
}

// Pattern names one library entry.  Run only reads Template, so a shared
// template (e.g. from a compiled-pattern cache) may back any number of
// concurrent sweeps.
type Pattern struct {
	Name     string
	Template *graph.Circuit
}

// Options configures a sweep.
type Options struct {
	// Globals lists net names treated as special signals (paper §V.A).
	// The effective set is the union of this list, the main circuit's
	// marked globals, and every pattern's marked globals, applied to all
	// circuits by name for this sweep only: every per-pattern run gets the
	// union as its core.Options.Globals, and no circuit is modified.
	Globals []string

	// Workers bounds how many patterns are matched concurrently
	// (0 = GOMAXPROCS, 1 = sequential).  Output is identical for every
	// value.
	Workers int

	// MaxInstances stops each pattern's search after this many instances
	// (0 = no limit).
	MaxInstances int

	// Seed perturbs the unique-label stream of every per-pattern run.
	Seed uint64

	// Cancel, when non-nil, is polled by every per-pattern run between
	// Phase I passes and Phase II candidates; the first non-nil return
	// aborts the whole sweep and Run returns that error.
	Cancel func() error

	// CSR, when non-nil, supplies a prebuilt flat view of the main
	// circuit (see core.NewCSR); nil means Run builds one for the sweep.
	// The view's scratch pool and cached initial labeling then serve this
	// sweep and every other matcher sharing the view.
	CSR *core.CSR

	// Incremental, when non-nil, lets per-pattern runs reuse match state
	// captured against an earlier version of the main circuit (see
	// core.FindIncremental).  Instances are identical with or without it.
	Incremental Incremental

	// Observe, when non-nil, receives span timelines from every per-pattern
	// run (see core.Options.Observe).  The timeline behind the scope is
	// mutex-protected, so concurrent sweep workers may share one; each
	// pattern's phase spans carry the pattern name, which keeps the
	// interleaved spans attributable.  Nil costs nothing.
	Observe *obs.Scope
}

// Incremental supplies and collects per-pattern incremental match state.
// Lookup is called once per executed run with the pattern template and the
// exact core options of the run (their Globals carry the sweep's union); it
// returns the
// capture from a previous run of an equivalent pattern plus the dirty set
// leading from that capture's circuit version to the current one, or
// ok=false to force a full (but still capturing) run.  Store is called
// with the fresh capture after the run; a nil capture means the run could
// not capture and any prior entry should be left alone.
//
// The interface decouples the sweep engine from cache policy: the daemon
// backs it with a versioned result cache keyed by circuit, version, and
// pattern structure (internal/delta), while tests substitute fakes.
// Implementations must be safe for concurrent use — workers call them in
// parallel.
type Incremental interface {
	Lookup(pat *graph.Circuit, opts core.Options) (prev *core.IncrementalState, ds *core.DirtySet, ok bool)
	Store(pat *graph.Circuit, opts core.Options, state *core.IncrementalState)
}

// PatternResult is one pattern's share of a sweep report.
type PatternResult struct {
	// Name echoes the input pattern name.
	Name string

	// Alias, when non-empty, names the structurally identical earlier
	// pattern whose run answered this one; Report then describes that
	// shared run (aggregate it once, keyed by the alias, not per copy).
	Alias string

	// Instances are the verified embeddings, keyed by the devices and
	// nets of the input Template.
	Instances []*core.Instance

	// Report carries the run's Phase I / Phase II statistics.
	Report stats.Report
}

// Report is the merged outcome of a sweep.
type Report struct {
	// Results holds one entry per input pattern, in input order.
	Results []PatternResult

	// Runs counts the matches actually executed; Deduped counts the
	// patterns answered from a structural twin's run (Runs + Deduped =
	// len(Results)).
	Runs    int
	Deduped int

	// Replayed / Recomputed total the Phase II candidate outcomes answered
	// from a prior capture vs verified fresh, summed over executed runs.
	// Both stay zero without Options.Incremental.
	Replayed   int
	Recomputed int

	// Duration is the sweep's wall-clock time.
	Duration time.Duration
}

// Instances returns the total instance count across all patterns.
func (r *Report) Instances() int {
	n := 0
	for i := range r.Results {
		n += len(r.Results[i].Instances)
	}
	return n
}

// Run sweeps the pattern library over g and returns the merged report.
// The patterns' matched instances are identical to what a sequential
// per-pattern core.Find loop with the same options would produce, with
// Options.Globals widened to the sweep's union (see Options.Globals).
//
// Run only reads g and the pattern templates, so a long-lived caller can
// run sweeps concurrently with other matches over the same resident
// circuit.
func Run(g *graph.Circuit, patterns []Pattern, opts Options) (*Report, error) {
	start := time.Now()
	if g == nil {
		return nil, fmt.Errorf("sweep: nil main circuit")
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("sweep: empty pattern library")
	}
	for i := range patterns {
		if patterns[i].Template == nil {
			return nil, fmt.Errorf("sweep: pattern %d (%s): nil template", i, patterns[i].Name)
		}
	}

	// The union of special signals (the Fig. 7 semantics core.Find applies
	// pairwise), so all per-pattern runs agree on the set.
	union := map[string]bool{}
	for _, name := range opts.Globals {
		union[name] = true
	}
	for _, n := range g.Globals() {
		union[n.Name] = true
	}
	for _, p := range patterns {
		for _, n := range p.Template.Globals() {
			union[n.Name] = true
		}
	}
	globals := make([]string, 0, len(union))
	for name := range union {
		globals = append(globals, name)
	}
	sort.Strings(globals)

	// Deduplicate structurally identical patterns: the first of each
	// equivalence class runs, later twins reuse its result.  The key
	// covers which nets the union makes global — a mark changes matching
	// semantics, so two copies may only collapse when their marks agree
	// too.
	rep := make([]int, len(patterns))
	byKey := map[string]int{}
	var order []int // representative indices, input order
	deduped := 0
	for i := range patterns {
		k := structKey(patterns[i].Template, union)
		if j, ok := byKey[k]; ok {
			rep[i] = j
			deduped++
		} else {
			byKey[k] = i
			rep[i] = i
			order = append(order, i)
		}
	}

	// Shared main-graph state, built once for the whole sweep.
	view := opts.CSR
	if view == nil {
		view = core.NewCSR(g)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	results := make([]*core.Result, len(patterns))
	errs := make([]error, len(patterns))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = runOne(g, patterns[i].Template, view, globals, &opts)
			}
		}()
	}
	for _, i := range order {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, i := range order {
		if errs[i] != nil {
			return nil, fmt.Errorf("sweep: pattern %s: %w", patterns[i].Name, errs[i])
		}
	}

	out := &Report{
		Results: make([]PatternResult, len(patterns)),
		Runs:    len(order),
		Deduped: deduped,
	}
	for _, i := range order {
		out.Replayed += results[i].Report.Replayed
		out.Recomputed += results[i].Report.Recomputed
	}
	for i := range patterns {
		r := rep[i]
		pr := PatternResult{Name: patterns[i].Name, Report: results[r].Report}
		if r != i {
			pr.Alias = patterns[r].Name
		}
		pr.Instances = results[r].Instances
		if r != i {
			// Twins are index-identical by construction of structKey, so
			// the representative's instances translate by position.
			pr.Instances = remap(results[r].Instances, patterns[i].Template)
		}
		out.Results[i] = pr
	}
	out.Duration = time.Since(start)
	return out, nil
}

// runOne matches a single pattern over the sweep's shared view.
func runOne(g, pat *graph.Circuit, view *core.CSR, globals []string, opts *Options) (*core.Result, error) {
	if err := faults.Fire("sweep.worker"); err != nil {
		return nil, err
	}
	copts := core.Options{
		Globals:      globals,
		Policy:       core.MatchAll,
		MaxInstances: opts.MaxInstances,
		Seed:         opts.Seed,
		Cancel:       opts.Cancel,
		CSR:          view,
		Observe:      opts.Observe,
	}
	m, err := core.NewMatcher(g, copts)
	if err != nil {
		return nil, err
	}
	if opts.Incremental == nil {
		return m.Find(pat)
	}
	prev, ds, ok := opts.Incremental.Lookup(pat, copts)
	if !ok {
		prev, ds = nil, nil // full run, but still capture for next time
	}
	res, next, err := m.FindIncremental(pat, prev, ds)
	if err != nil {
		return nil, err
	}
	opts.Incremental.Store(pat, copts, next)
	return res, nil
}

// remap rekeys a representative's instances onto a twin's template, using
// the index correspondence.  Image devices and nets are main-graph objects and
// pass through unchanged.
func remap(insts []*core.Instance, to *graph.Circuit) []*core.Instance {
	out := make([]*core.Instance, len(insts))
	for k, in := range insts {
		ni := &core.Instance{
			DevMap: make(map[*graph.Device]*graph.Device, len(in.DevMap)),
			NetMap: make(map[*graph.Net]*graph.Net, len(in.NetMap)),
		}
		for pd, gd := range in.DevMap {
			ni.DevMap[to.Devices[pd.Index]] = gd
		}
		for pn, gn := range in.NetMap {
			ni.NetMap[to.Nets[pn.Index]] = gn
		}
		out[k] = ni
	}
	return out
}

// structKey canonically encodes a pattern's matching-relevant structure:
// device types, terminal classes and connectivity in index order, plus
// each net's port flag and, for the nets the sweep's global union names,
// the name.  Two patterns with
// equal keys are indistinguishable to the matcher except for vertex names,
// which never enter Phase I labels or Phase II verification — so they
// produce bit-identical instance lists and either can answer for both.
// Isomorphic patterns whose vertex orders differ hash apart and simply
// run separately; dedup is an optimization, never a requirement.
func structKey(c *graph.Circuit, globals map[string]bool) string {
	var b strings.Builder
	b.Grow(16 * (len(c.Devices) + len(c.Nets)))
	for _, d := range c.Devices {
		b.WriteString("d ")
		b.WriteString(d.Type)
		for _, p := range d.Pins {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(p.Class)))
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(p.Net.Index))
		}
		b.WriteByte('\n')
	}
	for _, n := range c.Nets {
		b.WriteByte('n')
		if n.Port {
			b.WriteString(" port")
		}
		if globals[n.Name] {
			b.WriteString(" global ")
			b.WriteString(n.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
