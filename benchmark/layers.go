package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
	"subgemini/internal/store"
	"subgemini/internal/sweep"
)

// layerInputs are the generated inputs the in-process pass times each
// layer's public functions on: the workload's own circuits and patterns.
// eco, when set, supplies the edit batches; otherwise batches are drawn
// from the first circuit.
type layerInputs struct {
	circuits []*circuit
	patterns []string
	eco      *ecoPlan
}

// layerReps is how many times the pass repeats each timing; it reports the
// median repetition.
const layerReps = 3

// layerOut collects the in-process per-layer metrics.
type layerOut map[string]metric

func (o layerOut) set(name string, v float64, samples int) {
	o[name] = metric{Value: v, Samples: samples}
}

// timeReps runs f layerReps times and records the median wall time in ms
// as metric name.
func (o layerOut) timeReps(name string, f func() error) error {
	ts := make([]float64, layerReps)
	for i := range ts {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		ts[i] = ms(time.Since(start))
	}
	o.set(name, median(ts), layerReps)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerPass times direct calls into netlist, csr, core, sweep, delta,
// store and extract on in, writing store files under work, and returns one
// value per in-process per-layer metric.
func layerPass(in layerInputs, seed int64, work string) (layerOut, error) {
	out := layerOut{}
	graphs := make([]*graph.Circuit, len(in.circuits))

	// netlist: parse every circuit the way the daemon parses an upload.
	err := out.timeReps("netlist.parse_ms", func() error {
		for i, c := range in.circuits {
			g, err := c.parse()
			if err != nil {
				return err
			}
			graphs[i] = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, g := range graphs {
		for _, n := range globals {
			g.MarkGlobal(n)
		}
	}

	// csr: build the flat views the store keeps per circuit.
	views := make([]*core.CSR, len(graphs))
	out.timeReps("csr.build_ms", func() error {
		for i, g := range graphs {
			views[i] = core.NewCSR(g)
		}
		return nil
	})

	// store: Put into a scratch data directory (snapshot and manifest).
	dir, err := os.MkdirTemp(work, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir, Globals: globals})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var puts []float64
	for rep := 0; rep < layerReps; rep++ {
		clones := make([]*graph.Circuit, len(graphs))
		for i, g := range graphs {
			clones[i] = g.Clone()
		}
		start := time.Now()
		for i, g := range clones {
			if _, err := st.Put(fmt.Sprintf("c%d", i), g); err != nil {
				return nil, err
			}
		}
		puts = append(puts, ms(time.Since(start)))
	}
	out.set("store.put_ms", median(puts), layerReps)

	if err := coreLayer(out, graphs, views, in.patterns); err != nil {
		return nil, err
	}
	if err := sweepLayer(out, graphs, views); err != nil {
		return nil, err
	}
	if err := editLayer(out, st, graphs[0], views[0], in, seed); err != nil {
		return nil, err
	}
	if err := e5Layer(out, seed); err != nil {
		return nil, err
	}

	// extract: the extract job's work, which clones the stored circuit.
	start := time.Now()
	for _, g := range graphs {
		if _, err := extract.Cells(g.Clone(), stdcell.All(), extract.Options{Globals: globals}); err != nil {
			return nil, err
		}
	}
	out.set("extract.cells_ms", ms(time.Since(start)), 1)
	return out, nil
}

// coreLayer times Matcher.Find and the capturing FindIncremental over every
// (circuit, pattern) pair and totals the Phase I/II reports.  Each pair's
// Find and capture run back to back, in alternating order, so that drift
// in the machine's speed cancels out of the capture overhead.
func coreLayer(out layerOut, graphs []*graph.Circuit, views []*core.CSR, patterns []string) error {
	type total struct {
		wall, p1, p2                                     time.Duration
		cand, inst, guesses, backtracks, ball, matchedDv int
	}
	finds := make([]total, layerReps)
	captures := make([]total, layerReps)
	for rep := 0; rep < layerReps; rep++ {
		for i, g := range graphs {
			for _, name := range patterns {
				for k := 0; k < 2; k++ {
					capture := (k+rep)%2 == 1
					m, err := core.NewMatcher(g, core.Options{Globals: globals, CSR: views[i]})
					if err != nil {
						return err
					}
					pat := stdcell.Get(name).Pattern()
					t := &finds[rep]
					start := time.Now()
					var res *core.Result
					if capture {
						t = &captures[rep]
						res, _, err = m.FindIncremental(pat, nil, nil)
					} else {
						res, err = m.Find(pat)
					}
					if err != nil {
						return err
					}
					t.wall += time.Since(start)
					r := &res.Report
					t.p1 += r.Phase1Duration
					t.p2 += r.Phase2Duration
					t.cand += r.Candidates
					t.inst += r.Instances
					t.guesses += r.Guesses
					t.backtracks += r.Backtracks
					t.ball += r.RegionBallSum
					t.matchedDv += r.MatchedDevices
				}
			}
		}
	}
	pick := func(ts []total, f func(total) time.Duration) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = us(f(t))
		}
		return median(xs)
	}
	wallUS := pick(finds, func(t total) time.Duration { return t.wall })
	p2US := pick(finds, func(t total) time.Duration { return t.p2 })
	// Counts repeat exactly across repetitions; one pass carries them.
	t, runs := finds[0], len(graphs)*len(patterns)
	out.set("core.find_ms", wallUS/1e3, layerReps)
	out.set("core.phase1_ms", pick(finds, func(t total) time.Duration { return t.p1 })/1e3, layerReps)
	out.set("core.phase2_ms", p2US/1e3, layerReps)
	out.set("core.candidates", float64(t.cand), runs)
	out.set("core.instances", float64(t.inst), runs)
	out.set("core.cv_precision", ratio(t.inst, t.cand), runs)
	out.set("core.guesses", float64(t.guesses), runs)
	out.set("core.backtracks", float64(t.backtracks), runs)
	out.set("core.region_avg_ball", ratio(t.ball, t.cand), runs)
	out.set("core.phase2_us_per_candidate", p2US/float64(max(t.cand, 1)), layerReps)
	out.set("core.us_per_matched_dev", wallUS/float64(max(t.matchedDv, 1)), layerReps)
	capUS := pick(captures, func(t total) time.Duration { return t.wall })
	out.set("core.capture_overhead_pct", 100*(capUS/wallUS-1), layerReps)
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sweepLayer times sweep.Run of the stored library with one and two
// workers, each circuit's pair back to back in alternating order, and the
// shared initial labelling a sweep computes once.
func sweepLayer(out layerOut, graphs []*graph.Circuit, views []*core.CSR) error {
	lib := make([]sweep.Pattern, len(sweepLibrary))
	for i, name := range sweepLibrary {
		lib[i] = sweep.Pattern{Name: name, Template: stdcell.Get(name).Pattern()}
	}
	var w1, w2 [layerReps]float64
	deduped := 0
	for rep := 0; rep < layerReps; rep++ {
		for i, g := range graphs {
			for k := 0; k < 2; k++ {
				workers := 1 + (k+rep)%2
				start := time.Now()
				r, err := sweep.Run(g, lib, sweep.Options{Globals: globals, Workers: workers, CSR: views[i]})
				if err != nil {
					return err
				}
				if workers == 1 {
					w1[rep] += ms(time.Since(start))
				} else {
					w2[rep] += ms(time.Since(start))
				}
				if rep == 0 && workers == 1 {
					deduped += r.Deduped
				}
			}
		}
	}
	out.set("sweep.run_ms.w1", median(w1[:]), layerReps)
	out.set("sweep.run_ms.w2", median(w2[:]), layerReps)
	out.set("sweep.workers_speedup", median(w1[:])/median(w2[:]), layerReps)
	out.set("sweep.deduped", float64(deduped), len(graphs))
	return out.timeReps("sweep.init_labels_ms", func() error {
		for _, g := range graphs {
			core.NewInitLabels(g)
		}
		return nil
	})
}

// editLayer replays eco-patch's edit schedule (or one drawn from g) through
// delta.Apply, csr.Patch, delta.Compose, Store.ApplyEdits and the
// replaying FindIncremental, one step at a time.
func editLayer(out layerOut, st *store.Store, g *graph.Circuit, view *core.CSR, in layerInputs, seed int64) error {
	eco := in.eco
	if eco == nil {
		eco = &ecoPlan{}
		eco.apply, eco.revert = rewireBatches(rand.New(rand.NewSource(seed)), g)
	}
	if _, err := st.Put("eco", g.Clone()); err != nil {
		return err
	}
	// One capture per pattern at the original state; re-match i replays
	// from the capture of its pattern, as the daemon's result cache does.
	states := map[string]*core.IncrementalState{}
	since := map[string]int{}
	for _, name := range in.patterns {
		m, err := core.NewMatcher(g, core.Options{Globals: globals, CSR: view})
		if err != nil {
			return err
		}
		if _, states[name], err = m.FindIncremental(stdcell.Get(name).Pattern(), nil, nil); err != nil {
			return err
		}
	}
	var applyMS, patchMS, composeMS, storeMS, incMS []float64
	var steps []*delta.Step
	rebuilds, replayed, recomputed := 0, 0, 0
	cur, curView := g, view
	for i := 0; i < ecoPeriod; i++ {
		ops, _ := eco.step(i)
		name := in.patterns[i%len(in.patterns)]
		next := cur.Clone()
		start := time.Now()
		step, err := delta.Apply(next, uint64(i+2), ops)
		if err != nil {
			return fmt.Errorf("edit %d: %w", i, err)
		}
		applyMS = append(applyMS, ms(time.Since(start)))

		start = time.Now()
		nextView, rebuilt := csr.Patch(curView, next, csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New}, step.DirtyDevs, step.DirtyNets)
		patchMS = append(patchMS, ms(time.Since(start)))
		if rebuilt {
			rebuilds++
		}

		start = time.Now()
		if _, err := st.ApplyEdits("eco", ops); err != nil {
			return fmt.Errorf("store edit %d: %w", i, err)
		}
		storeMS = append(storeMS, ms(time.Since(start)))

		steps = append(steps, step)
		start = time.Now()
		ds, err := delta.Compose(steps[since[name]:])
		if err != nil {
			return err
		}
		composeMS = append(composeMS, ms(time.Since(start)))

		m, err := core.NewMatcher(next, core.Options{Globals: globals, CSR: nextView})
		if err != nil {
			return err
		}
		start = time.Now()
		res, st2, err := m.FindIncremental(stdcell.Get(name).Pattern(), states[name], ds)
		if err != nil {
			return err
		}
		incMS = append(incMS, ms(time.Since(start)))
		states[name], since[name] = st2, len(steps)
		replayed += res.Report.Replayed
		recomputed += res.Report.Recomputed
		cur, curView = next, nextView
	}
	out.set("delta.apply_ms", median(applyMS), ecoPeriod)
	out.set("csr.patch_ms", median(patchMS), ecoPeriod)
	out.set("csr.rebuilds", float64(rebuilds), ecoPeriod)
	out.set("store.apply_edits_ms", median(storeMS), ecoPeriod)
	out.set("delta.compose_ms", median(composeMS), ecoPeriod)
	out.set("core.find_incremental_ms", median(incMS), ecoPeriod)
	out.set("core.replayed", float64(replayed), ecoPeriod)
	out.set("core.recomputed", float64(recomputed), ecoPeriod)
	out.set("core.replay_ratio", ratio(replayed, replayed+recomputed), ecoPeriod)
	return nil
}

// e5Layer measures the paper's linearity claim the way EXPERIMENTS.md E5
// does: µs per matched device for NAND2 in random logic of three sizes,
// each the median of five Finds, and the drift from the smallest to the
// largest size.  The sizes take turns, so drift in the machine's speed
// cancels out of the ratio.
func e5Layer(out layerOut, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5e5))
	nand2 := stdcell.Get("NAND2").Pattern()
	sizes := []int{1000, 2000, 4000}
	matchers := make([]*core.Matcher, len(sizes))
	for i, gates := range sizes {
		m, err := core.NewMatcher(gen.RandomLogic(gates, gates/64+8, rng.Int63()).C, core.Options{Globals: globals})
		if err != nil {
			return err
		}
		matchers[i] = m
	}
	const reps = 5
	ts := make([][]float64, len(sizes))
	matched := make([]int, len(sizes))
	for rep := 0; rep < reps; rep++ {
		for i, m := range matchers {
			start := time.Now()
			res, err := m.Find(nand2)
			if err != nil {
				return err
			}
			ts[i] = append(ts[i], us(time.Since(start)))
			matched[i] = res.Report.MatchedDevices
		}
	}
	for i, gates := range sizes {
		out.set(fmt.Sprintf("core.us_per_matched_dev.rand%d", gates), median(ts[i])/float64(max(matched[i], 1)), reps)
	}
	out.set("core.e5_drift", out["core.us_per_matched_dev.rand4000"].Value/out["core.us_per_matched_dev.rand1000"].Value, reps)
	return nil
}
