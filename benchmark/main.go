// Command benchmark is the repository benchmark: it builds cmd/subgeminid,
// boots the real binary on loopback, drives closed-loop workloads against
// it, checks every response against an oracle, and reports end-to-end
// metrics or, with -trace 1, per-layer metrics.  README.md lists the
// workloads and metrics; run.sh is the entry point:
//
//	bash benchmark/run.sh --workload match-rand --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out e2e.json            # all workloads
//	bash benchmark/run.sh -compare base.json -- new.json   # regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// segments is how many daemons a run boots, one after another; each serves
// an equal slice of the measured window.  On a shared VM the memory speed a
// process gets is drawn when its pages are first touched and differs by up
// to 3x between processes, while staying within about 15% inside one.  A
// run that measured a single daemon would report that draw; pooling the
// samples of several daemons averages it out.  setup_s is the median of the
// segments' set-up times.
const segments = 8

// segmentWarm is the discarded warm-up on each daemon before its slice of
// the window: long enough for a few iterations of every workload, so caches
// are filled and the heap has grown.
const segmentWarm = time.Second

// maxProcs caps the generator's GOMAXPROCS: the load is sized for a
// two-core machine and the generator shares it with the daemon.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all, one after another)")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 0, "measured window per workload in seconds (0 = 30, or 20 with -trace 1)")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		out     = fs.String("out", "", "also write the results, with machine metadata, to this JSON file")
		rootDir = fs.String("root", "..", "repository root")
		compare = fs.Bool("compare", false, "compare result files: -compare base.json... -- new.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := filepath.Abs(*rootDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		return compareMain(filepath.Join(root, "BENCHMARK.json"), fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	wls := workloads
	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		wls = []*workload{wl}
	}
	traced := *trace == 1
	window := time.Duration(*seconds) * time.Second
	if *seconds <= 0 {
		window = 30 * time.Second
		if traced {
			window = 20 * time.Second
		}
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	bin, err := buildDaemon(root, build)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var results []runResult
	for _, wl := range wls {
		r, err := runWorkload(wl, *seed, window, traced, bin, work)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", wl.name, err)
			return 1
		}
		for _, e := range r.Errors {
			fmt.Fprintln(stderr, e)
		}
		printRow(stdout, r)
		results = append(results, r)
	}
	if *out != "" {
		f := resultFile{Meta: collectMeta(root, *seed, window), Runs: results}
		b, _ := json.MarshalIndent(f, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	status := 0
	for _, r := range results {
		if !r.Correct {
			status = 1
		}
	}
	if len(results) == 1 {
		printSummary(stdout, results[0])
	}
	return status
}

// printSummary prints the one-line JSON result a single-workload run ends
// with.
func printSummary(w io.Writer, r runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintln(w, string(b))
}

// runWorkload prepares one workload's inputs and runs them against
// segments daemons in turn, pooling what each measured and timing the
// reference loop after each.  A traced run alternates plain and traced
// daemons, so the machine's drift falls on both sides of
// obs.trace_overhead_pct alike, and then times the layers in-process.
func runWorkload(wl *workload, seed int64, window time.Duration, traced bool, bin, work string) (r runResult, err error) {
	r = runResult{Workload: wl.name, Seed: seed, Trace: traced}
	p, err := wl.prepare(seed)
	if err != nil {
		return r, fmt.Errorf("preparing inputs: %w", err)
	}
	slice := window / segments
	ref := newRefGraph()
	var (
		setups, rss, refs []float64
		plain, tracedOps  []op
		attrs             []attribution
		missing           int
	)
	for i := 0; i < segments && r.Failed == 0; i++ {
		tr := traced && i%2 == 1
		s, err := r.runSegment(bin, work, tr, p, wl.clients, slice)
		if err != nil {
			return r, err
		}
		refs = append(refs, timeReference(ref)...)
		setups = append(setups, s.setup)
		rss = append(rss, s.rss...)
		if tr {
			tracedOps = append(tracedOps, s.ops...)
			attrs = append(attrs, s.attrs...)
			missing += s.missing
		} else {
			plain = append(plain, s.ops...)
		}
	}
	if r.Correct = r.Failed == 0; !r.Correct {
		return r, nil
	}
	r.RefMS = median(refs)
	if !traced {
		r.Metrics, err = e2eMetrics(plain, slice*segments, setups, rss, refNominalMS/r.RefMS)
		return r, err
	}
	if missing > len(tracedOps)/10 {
		return r, fmt.Errorf("flight recorder lost %d of %d timelines", missing, len(tracedOps))
	}
	inproc, err := layerPass(p.layers, seed, work)
	if err != nil {
		return r, fmt.Errorf("in-process layer pass: %w", err)
	}
	r.Metrics, err = layerMetrics(plain, tracedOps, attrs, inproc)
	return r, err
}

// boot starts a daemon and loads the plan's resident state, returning the
// set-up time in seconds: from exec until the state is loaded.
func boot(bin, work string, traced bool, p *plan, clients int) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(bin, work, traced, clients)
	if err != nil {
		return nil, 0, err
	}
	if err := p.setup(d.h); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("loading resident state: %w", err)
	}
	return d, time.Since(start).Seconds(), nil
}

// segment is what one daemon of a run measured.
type segment struct {
	setup   float64   // seconds from exec until the resident state was loaded
	ops     []op      // the measured ops
	rss     []float64 // resident set size samples in MB
	attrs   []attribution
	missing int // measured ops whose timeline a traced daemon no longer held
}

// runSegment boots one daemon, warms it up for segmentWarm, measures it for
// slice, reads the measured ops' timelines back when traced, and stops it.
// Counts and failures are folded into r.
func (r *runResult) runSegment(bin, work string, traced bool, p *plan, clients int, slice time.Duration) (s segment, err error) {
	d, setup, err := boot(bin, work, traced, p, clients)
	if err != nil {
		return s, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	s.setup = setup
	rss := d.sampleRSS(segmentWarm, slice)
	s.ops = r.absorb(drive(d.h, p, clients, segmentWarm, slice))
	if s.rss, err = rss(); err != nil {
		return s, err
	}
	if traced {
		s.attrs, s.missing, err = fetchTimelines(d.h, s.ops)
	}
	return s, err
}

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 5

// absorb folds the workers' counts and failures into r and returns their
// measured ops.
func (r *runResult) absorb(ws []*worker) []op {
	var ops []op
	for _, w := range ws {
		ops = append(ops, w.ops...)
		r.Attempted += w.attempted
		r.Failed += w.failed
		for _, e := range w.errs {
			if len(r.Errors) < maxErrors {
				r.Errors = append(r.Errors, e)
			}
		}
	}
	return ops
}
