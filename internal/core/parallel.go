package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
)

// FindParallel is Find with Phase II candidates verified concurrently.
// Phase I is inherently sequential (one pass over both graphs) but cheap;
// Phase II examines each candidate independently, so the candidate vector
// is striped across workers, each with its own verification state.
//
// Only the MatchAll policy is supported: NonOverlapping serializes on the
// consumed-device set by design.  Results are identical to Find up to
// instance order, which is canonicalized (sorted by image device set), and
// the run remains deterministic for a fixed worker count.
//
// workers <= 0 selects GOMAXPROCS.  The per-worker memory cost is O(|G|),
// so very wide fan-out on very large graphs trades memory for latency.
func (m *Matcher) FindParallel(s *graph.Circuit, workers int) (*Result, error) {
	if m.opts.Policy != MatchAll {
		return nil, fmt.Errorf("core: FindParallel requires the MatchAll policy")
	}
	if m.opts.MaxInstances > 0 {
		return nil, fmt.Errorf("core: FindParallel does not support MaxInstances (the cutoff would be nondeterministic)")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || m.opts.Tracer != nil || m.opts.TraceTable != nil {
		// Algorithm observers would interleave arbitrarily across workers
		// (and a TraceTable writer would be written concurrently); an
		// observed run falls back to the sequential matcher, which produces
		// the same instances with a deterministic, ordered trace.
		return m.Find(s)
	}
	pat, err := m.prepare(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	key, cv, err := m.runPhase1(pat, res)
	if err != nil || len(cv) == 0 {
		return res, err
	}

	if workers > len(cv) {
		workers = len(cv)
	}
	// Pre-warm the pattern's type labels, the one matcher cache the
	// Phase II engine writes, so workers only read it; the main graph's
	// labels and shape come from the immutable CSR view.
	for _, d := range pat.s.Devices {
		m.typeLabel(d.Type)
	}
	t1 := time.Now()
	p2Ref := obs.NoSpan
	if o := m.opts.Observe; o != nil {
		p2Ref = o.Begin(obs.KindPhase2, pat.s.Name)
	}
	type shard struct {
		instances []*Instance
		report    stats.Report
		err       error
		cancel    error // cancellation latched inside this worker's solve
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			p2, err := newP2Region(m, pat, key, &sh.report)
			if err != nil {
				sh.err = err
				return
			}
			defer p2.close()
			for i := w; i < len(cv); i += workers {
				if m.opts.cancelled() != nil {
					// The definitive error is re-polled after the join;
					// workers just stop claiming candidates.
					return
				}
				sh.report.Candidates++
				if inst := p2.verifyCandidate(key, cv[i]); inst != nil {
					sh.report.CandidatesMatched++
					sh.instances = append(sh.instances, inst)
				}
				if err := p2.cancelled(); err != nil {
					// Cancellation fired deep inside this worker's solve
					// recursion; record it and stop claiming candidates.
					sh.cancel = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.Report.Phase2Duration = time.Since(t1)
	if o := m.opts.Observe; o != nil {
		o.AttrInt(p2Ref, "workers", int64(workers))
		o.End(p2Ref)
	}
	// Cancellation is monotonic (a cancelled context stays cancelled), so
	// one poll after the join decides whether the run was cut short; the
	// per-shard latch catches a hook whose error was observed only inside a
	// worker's solve recursion.
	cancelErr := m.opts.cancelled()
	for w := range shards {
		if cancelErr == nil && shards[w].cancel != nil {
			cancelErr = shards[w].cancel
		}
	}
	if cancelErr != nil {
		res.Report.CancelledAt = "phase2"
		return res, cancelErr
	}

	// Engine construction errors mean a pre-match constraint is
	// unsatisfiable (a global or bind target missing): every worker reports
	// the same thing, and the result is simply "no instances".
	for w := range shards {
		if shards[w].err != nil {
			return res, nil
		}
	}
	type keyed struct {
		sig  string
		inst *Instance
	}
	seen := make(map[string]bool)
	var all []keyed
	var sigBuf []int
	var sig string
	for w := range shards {
		res.Report.Phase2Passes += shards[w].report.Phase2Passes
		res.Report.Guesses += shards[w].report.Guesses
		res.Report.Backtracks += shards[w].report.Backtracks
		res.Report.GuessLimitHits += shards[w].report.GuessLimitHits
		res.Report.VerifyCalls += shards[w].report.VerifyCalls
		res.Report.Candidates += shards[w].report.Candidates
		res.Report.CandidatesMatched += shards[w].report.CandidatesMatched
		res.Report.Filtered += shards[w].report.Filtered
		res.Report.RegionBallSum += shards[w].report.RegionBallSum
		if shards[w].report.RegionMaxSize > res.Report.RegionMaxSize {
			res.Report.RegionMaxSize = shards[w].report.RegionMaxSize
		}
		if shards[w].report.RegionRadius > res.Report.RegionRadius {
			// Every shard that examined a candidate saw the same radius.
			res.Report.RegionRadius = shards[w].report.RegionRadius
		}
		for _, inst := range shards[w].instances {
			sig, sigBuf = inst.signature(sigBuf)
			if !seen[sig] {
				seen[sig] = true
				all = append(all, keyed{sig, inst})
			}
		}
	}
	// Canonical order: by image device set (the signature encodes the
	// sorted device indices, so sorting by it sorts by device set).
	sort.Slice(all, func(i, j int) bool { return all[i].sig < all[j].sig })
	res.Instances = make([]*Instance, len(all))
	for i, k := range all {
		res.Instances[i] = k.inst
		res.Report.MatchedDevices += len(k.inst.DevMap)
	}
	res.Report.Instances = len(res.Instances)
	if o := m.opts.Observe; o != nil {
		o.AttrInt(p2Ref, "candidates", int64(res.Report.Candidates))
		o.AttrInt(p2Ref, "filtered", int64(res.Report.Filtered))
		o.AttrInt(p2Ref, "instances", int64(res.Report.Instances))
	}
	return res, nil
}
