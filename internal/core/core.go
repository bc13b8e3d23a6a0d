// Package core implements the SubGemini subgraph-isomorphism algorithm of
// Ohlrich, Ebeling, Ginting and Sather (DAC 1993): finding every instance of
// a subcircuit (the pattern S) inside a larger circuit (the main graph G).
//
// The algorithm runs in two phases.  Phase I applies partition refinement by
// relabeling to both graphs, tracking a valid/corrupt bit on pattern
// vertices so that labels of pattern vertices provably equal the labels of
// their images in the main graph (Label Invariant 1).  It selects a key
// vertex K in the pattern and a candidate vector CV of main-graph vertices
// that might be images of K.  Phase II examines each candidate c, postulates
// c = image(K), and spreads unique labels outward from the matched pair,
// using only labels proven "safe", matching singleton partitions as they
// emerge and guessing (with backtracking) when symmetry stalls progress
// (Label Invariant 2).  Every complete mapping is verified edge-by-edge
// before being reported, so label collisions can cost time but never
// correctness.
//
// Special signals (Vdd, GND, clocks) may be declared global: they are
// matched by name, never labeled, and never corrupt, which both constrains
// matching (an inverter is not reported inside every NAND gate, paper
// Fig. 7) and avoids labeling the highest-degree nets in the circuit.
package core

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
)

// OverlapPolicy controls how instances sharing devices are reported.
type OverlapPolicy int

const (
	// MatchAll reports one instance per candidate-vector entry that
	// verifies, even when instances share devices (rule-checking semantics).
	MatchAll OverlapPolicy = iota
	// NonOverlapping consumes the devices of each reported instance, so no
	// device belongs to two instances (extraction semantics).  Candidates
	// are retried after a success, so several instances whose key images
	// coincide are still all found.
	NonOverlapping
)

// Options configures a matching run.
type Options struct {
	// Globals lists net names treated as special signals in both circuits
	// (paper §V.A).  A pattern net with one of these names only matches the
	// identically named main-graph net.  They apply to the run only: the
	// matcher never marks them on either circuit (see Matcher.Find for the
	// full set a run uses).
	Globals []string

	// Bind constrains pattern ports to specific main-graph nets by name:
	// Bind["CLK"] = "clk_phi1" makes the pattern's CLK port match only the
	// net clk_phi1.  This generalizes special signals (§V.A: "the user may
	// place further constraints on the subcircuit"): a bound port is
	// pre-matched like a global but keeps port degree semantics (the
	// target may have any number of extra connections).  Unlike globals,
	// bindings are per-run and the names need not agree.
	Bind map[string]string

	// Policy selects overlap semantics; the zero value is MatchAll.
	Policy OverlapPolicy

	// MaxInstances stops the search after this many instances (0 = no
	// limit).
	MaxInstances int

	// Seed perturbs the unique-label stream.  Runs with equal seeds are
	// bit-for-bit reproducible.
	Seed uint64

	// CSR, when non-nil, supplies a prebuilt flat view of the main circuit
	// (see NewCSR), letting long-lived callers like subgeminid build it
	// once per resident circuit and share it across matchers; the view is
	// immutable and safe for concurrent use.  It must describe the same
	// circuit passed to NewMatcher (vertex counts are checked; a mismatch
	// falls back to building a fresh view).  Nil means the Matcher builds
	// and caches its own on first use.
	CSR *CSR

	// Scratch, when non-nil, recycles the O(|G|) per-run Phase II state
	// across Find calls (see ScratchPool).  Sharing one pool across the
	// matchers of one resident circuit removes the dominant steady-state
	// allocation of a match request.
	Scratch *ScratchPool

	// InitLabels, when non-nil, supplies a precomputed initial Phase I
	// labeling of the main circuit (see NewInitLabels), letting a library
	// sweep label the main graph once and share the result read-only
	// across its per-pattern matchers.  It must describe the same circuit
	// under the run's global set (both are checked; a mismatch falls back
	// to computing the labeling as usual).
	InitLabels *InitLabels

	// Cancel, when non-nil, is polled at bounded intervals throughout the
	// run: between and *inside* Phase I relabeling passes (every few
	// thousand vertices of the main-graph worklist, so a deadline holds
	// even while one pass walks a huge circuit) and between and *inside*
	// Phase II candidates (every few dozen solve passes, so a single
	// pathological candidate with deep guess recursion cannot hold a
	// worker past its deadline).  The first non-nil return aborts the run;
	// Find/FindParallel then return that error together with a partial
	// Result whose Report.CancelledAt records which phase was cut.
	// Wiring a request context in is one line:
	//
	//	opts.Cancel = ctx.Err
	//
	// The hook must be safe for concurrent use (ctx.Err is): FindParallel
	// and sweep workers poll it from several goroutines.
	Cancel func() error

	// Observe, when non-nil, receives span timelines for the run: one
	// phase1 span (attrs: passes, cv_size), one phase2 span (attrs:
	// candidates, filtered, instances — plus replayed/recomputed on the
	// incremental path), and a csr-build span when the matcher has to
	// construct its own adjacency view.  Wiring a request timeline in is
	// one line:
	//
	//	opts.Observe = obs.ScopeFromContext(ctx)
	//
	// When the timeline is a trace (obs.NewTrace), the run also records
	// algorithm detail: circuit, devices, nets, key and key_is_device on
	// the phase1 span, one obs.KindPass span per Phase I half-pass under
	// it, and one obs.KindCandidate span per examined Phase II candidate
	// under the phase2 span.  A traced FindParallel or FindIncremental
	// runs as Find, so the candidate spans keep Find's order.
	//
	// Like Cancel, the hook must be safe for concurrent use: FindParallel
	// workers and sweep workers emit spans from several goroutines (the
	// Timeline behind a Scope is mutex-protected).  A nil Observe costs
	// nothing — the disabled path performs zero allocations, pinned by
	// TestObserveDisabledNoAllocs — and the field never affects results,
	// so delta.PatternKey deliberately excludes it.
	Observe *obs.Scope

	// TraceTable, when non-nil, receives the Fig. 2/4-style Phase I table
	// and a Table-1-style rendering of every Phase II candidate
	// verification: one row per vertex, one column per relabeling pass,
	// with symbolic labels (KV, A, B, ...), '*' for safe vertices and
	// brackets for matched ones — the presentation the paper uses to walk
	// through its example.  Main-graph rows cover the vertices of the
	// candidate's ball that Phase II labeled.  Verbose; intended for small
	// runs.  Like a trace, it sends FindParallel to the sequential matcher.
	TraceTable io.Writer
}

// Design-choice ablations (DESIGN.md §4).  Only tests switch them on
// (export_test.go), to measure what each decision buys; neither changes
// which instances are found, only how fast.
var (
	// ablateDegreeCheck disables the Phase II match-time degree
	// feasibility check; false candidates in degree-uniform fabrics are
	// then refuted only by the final verification.
	ablateDegreeCheck bool

	// ablateGlobalFold disables folding global-net pins into the Phase I
	// initial device labels; rail-anchored patterns then start from
	// type-only partitions.
	ablateGlobalFold bool
)

// cancelled polls the Cancel hook; nil means "keep going".
func (o *Options) cancelled() error {
	if o.Cancel == nil {
		return nil
	}
	return o.Cancel()
}

// Instance is one verified embedding of the pattern in the main graph.
type Instance struct {
	// DevMap maps each pattern device to its image.
	DevMap map[*graph.Device]*graph.Device
	// NetMap maps each pattern net (including globals) to its image.
	NetMap map[*graph.Net]*graph.Net
}

// Devices returns the image devices sorted by main-graph index.
func (in *Instance) Devices() []*graph.Device {
	ds := make([]*graph.Device, 0, len(in.DevMap))
	for _, g := range in.DevMap {
		ds = append(ds, g)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Index < ds[j].Index })
	return ds
}

// signature canonically identifies the instance by its image device set, for
// de-duplication when several pattern vertices share the key label.  buf is
// a reusable scratch slice (may be nil); the second return value hands it
// back to the caller.
func (in *Instance) signature(buf []int) (string, []int) {
	buf = buf[:0]
	for _, g := range in.DevMap {
		buf = append(buf, g.Index)
	}
	// Insertion sort: instances have tens of devices at most.
	for i := 1; i < len(buf); i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	// Big-endian bytes make the string order of signatures equal the
	// numeric order of device-index tuples, which FindParallel relies on
	// for its canonical instance order.
	sig := make([]byte, 0, len(buf)*4)
	for _, x := range buf {
		sig = append(sig, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	}
	return string(sig), buf
}

// String renders the instance as its sorted image device list.
func (in *Instance) String() string {
	s := "{"
	for i, d := range in.Devices() {
		if i > 0 {
			s += " "
		}
		s += d.Name
	}
	return s + "}"
}

// Result is the outcome of a Find run.
type Result struct {
	Instances []*Instance
	Report    stats.Report
}

// Summary renders a one-line account of the run for logs and CLIs.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d instance(s); %s", len(r.Instances), r.Report.String())
}

// Find locates instances of pattern s inside main circuit g.
//
// The pattern's port nets (its external nets) must be marked with
// graph.Net.Port before calling Find; internal pattern nets must not have
// connections outside the instance for a match to be reported (induced
// subgraph semantics, paper §II).  Find returns an error only for malformed
// inputs (e.g. a pattern that is disconnected once global nets are
// removed); "no instances" is a successful empty result.
func Find(g, s *graph.Circuit, opts Options) (*Result, error) {
	m, err := NewMatcher(g, opts)
	if err != nil {
		return nil, err
	}
	return m.Find(s)
}

// Matcher holds the main circuit and options so several patterns can be
// matched against the same circuit.  A Matcher is not safe for concurrent
// use.
type Matcher struct {
	g    *graph.Circuit
	opts Options

	gSpace *label.Space
	// consumed marks main-graph devices already claimed by an instance
	// under the NonOverlapping policy.  It persists across Find calls so
	// iterated extraction can run several patterns against one circuit.
	consumed []bool

	// typeLab caches the type-name label hashes of pattern devices; the
	// main graph's are in its CSR view (csr.Graph.DevType).
	typeLab map[string]label.Value

	// gCSR caches the flat CSR view of the main graph, the representation
	// both phases read: adjacency, terminal-class multipliers, and per-device
	// type labels.  It captures structure only, so it serves every run's
	// global set.
	gCSR *csr.Graph
}

// CSR is a flat compressed-sparse-row view of a circuit, the representation
// the Phase I engine relabels over.  Build one with NewCSR to share across
// matchers of the same circuit via Options.CSR.
type CSR = csr.Graph

// NewCSR builds the flat view of a circuit.  The view captures structure
// only (connectivity, terminal classes and device type labels), is
// immutable, and is safe to share between any number of concurrent
// matchers.
func NewCSR(g *graph.Circuit) *CSR { return csr.New(g) }

// csrView returns the cached CSR view of the main graph, adopting a
// caller-supplied prebuilt view when it matches the circuit.
func (m *Matcher) csrView() *csr.Graph {
	if m.gCSR == nil {
		if v := m.opts.CSR; v != nil && v.Fits(m.g) {
			m.gCSR = v
		} else {
			ref := obs.NoSpan
			if o := m.opts.Observe; o != nil {
				ref = o.Begin(obs.KindCSRBuild, m.g.Name)
			}
			m.gCSR = csr.New(m.g)
			if o := m.opts.Observe; o != nil {
				o.AttrInt(ref, "devices", int64(len(m.g.Devices)))
				o.AttrInt(ref, "nets", int64(len(m.g.Nets)))
				o.End(ref)
			}
		}
	}
	return m.gCSR
}

// typeLabel returns the cached label.TypeLabel of a device type.
func (m *Matcher) typeLabel(typ string) label.Value {
	if v, ok := m.typeLab[typ]; ok {
		return v
	}
	v := label.TypeLabel(typ)
	m.typeLab[typ] = v
	return v
}

// NewMatcher prepares a matcher for the main circuit g.  The matcher only
// reads g.
func NewMatcher(g *graph.Circuit, opts Options) (*Matcher, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil main circuit")
	}
	for _, d := range g.Devices {
		if d.Type == graph.WildcardType {
			return nil, fmt.Errorf("core: main circuit %s contains a wildcard device (%s); wildcards are for patterns only", g.Name, d.Name)
		}
	}
	return &Matcher{
		g:        g,
		opts:     opts,
		gSpace:   label.NewSpace(g),
		consumed: make([]bool, g.NumDevices()),
		typeLab:  make(map[string]label.Value),
	}, nil
}

// ResetConsumed forgets which devices previous NonOverlapping runs claimed.
func (m *Matcher) ResetConsumed() {
	for i := range m.consumed {
		m.consumed[i] = false
	}
}

// Find locates instances of the pattern in the matcher's main circuit.
//
// The effective set of special signals is the union of Options.Globals and
// the nets already marked global in either circuit (e.g. by a .GLOBAL
// netlist directive); the union is applied to both circuits by name, so a
// library pattern matched against a netlist with declared globals gets the
// consistent Fig. 7 semantics without repeating the names in Options.  The
// union holds for this run only: neither circuit is modified, so a later
// run without those globals sees the circuits as they were.
func (m *Matcher) Find(s *graph.Circuit) (*Result, error) {
	pat, err := m.prepare(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	return res, m.match(pat, res, nil, nil)
}

// prepare resolves the run's global union and builds the pattern; every
// entry point starts here.
func (m *Matcher) prepare(s *graph.Circuit) (*pattern, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil pattern")
	}
	set, gGlobals := globalSet(m.g, s, m.opts.Globals)
	return newPattern(s, &m.opts, set, gGlobals)
}

// runPhase1 chooses the key vertex and candidate vector under the phase1
// span and fills the Phase I report fields, the key vertex included.  An
// empty candidate vector means Phase I proved no instance exists.  The
// error is non-nil only when Options.Cancel fired; res then holds the
// partial report, so callers can see where the run was cut.
func (m *Matcher) runPhase1(pat *pattern, res *Result) (label.VID, []label.VID, error) {
	t0 := time.Now()
	o := m.opts.Observe
	p1Ref := obs.NoSpan
	if o != nil {
		p1Ref = o.Begin(obs.KindPhase1, pat.s.Name)
		if mode := res.Report.IncrementalMode; mode != "" {
			o.Attr(p1Ref, "mode", mode)
		}
	}
	p1 := newPhase1(m, pat, &res.Report)
	if o.Detail() {
		o.Attr(p1Ref, "circuit", m.g.Name)
		o.AttrInt(p1Ref, "devices", int64(m.g.NumDevices()))
		o.AttrInt(p1Ref, "nets", int64(m.g.NumNets()))
		p1.trace = o.Timeline().Scope(p1Ref)
	}
	key, cv, err := p1.run()
	res.Report.Phase1Duration = time.Since(t0)
	if len(cv) > 0 {
		res.Report.KeyVertex = pat.space.Name(key)
		res.Report.KeyIsDevice = pat.space.IsDevice(key)
	}
	if o != nil {
		o.AttrInt(p1Ref, "passes", int64(res.Report.Phase1Passes))
		o.AttrInt(p1Ref, "cv_size", int64(len(cv)))
		if err == nil && p1.trace != nil {
			o.Attr(p1Ref, "key", res.Report.KeyVertex)
			o.Attr(p1Ref, "key_is_device", strconv.FormatBool(res.Report.KeyIsDevice))
		}
		o.End(p1Ref)
	}
	if err != nil {
		res.Report.CancelledAt = "phase1"
		return 0, nil, err
	}
	res.Report.CVSize = len(cv)
	if p1.tracer != nil {
		keyName := "(none)"
		if len(cv) > 0 {
			keyName = res.Report.KeyVertex
		}
		p1.tracer.render(m.opts.TraceTable, keyName, len(cv))
	}
	return key, cv, nil
}

// match runs both phases for a prepared pattern; Find and FindIncremental
// share its candidate loop.  rc, when non-nil, replays captured Phase II
// outcomes.  st, when non-nil, receives this run's capture (the key and
// every candidate's outcome) and turns on the Recomputed count; capturing
// runs use the MatchAll policy.  The error is non-nil only when
// Options.Cancel fired; res then holds the partial report and st is
// incomplete.
func (m *Matcher) match(pat *pattern, res *Result, rc *replayCtx, st *IncrementalState) error {
	key, cv, err := m.runPhase1(pat, res)
	if err != nil || len(cv) == 0 {
		return err
	}
	if st != nil {
		st.keyVID = key
		st.outcomes = make(map[int32]*candOutcome, len(cv))
	}

	// Phase II: verify each candidate.
	t1 := time.Now()
	p2Ref := obs.NoSpan
	if o := m.opts.Observe; o != nil {
		p2Ref = o.Begin(obs.KindPhase2, pat.s.Name)
	}
	p2, err := newP2Region(m, pat, key, &res.Report)
	if err != nil {
		// The pattern references a global net absent from G: no instance
		// can exist.
		res.Report.Phase2Duration = time.Since(t1)
		if o := m.opts.Observe; o != nil {
			o.End(p2Ref)
		}
		return nil
	}
	defer p2.close()
	if o := m.opts.Observe; o.Detail() {
		p2.trace = o.Timeline().Scope(p2Ref)
	}
	if rc != nil && !rc.arm(p2, key) {
		rc = nil
	}
	seen := make(map[string]bool)
	var sigBuf []int
	for _, c := range cv {
		if m.opts.MaxInstances > 0 && len(res.Instances) >= m.opts.MaxInstances {
			break
		}
		if err := m.opts.cancelled(); err != nil {
			return m.cutPhase2(res, t1, p2Ref, err)
		}
		res.Report.Candidates++
		var oc *candOutcome
		if rc != nil {
			oc = rc.outcome(c)
		}
		var inst *Instance
		if oc != nil {
			// Replay: advance the unique-label stream exactly as the
			// verification would have and rebuild the instance from the
			// captured images.
			p2.uniq.Skip(oc.draws)
			res.Report.Replayed++
			inst = m.instanceFromOutcome(pat, oc)
		} else {
			d0 := p2.uniq.Draws()
			inst = p2.verifyCandidate(key, c)
			if err := p2.cancelled(); err != nil {
				// Cancellation fired mid-candidate, deep inside the solve
				// recursion; the candidate's partial state was discarded.
				return m.cutPhase2(res, t1, p2Ref, err)
			}
			if st != nil {
				res.Report.Recomputed++
				oc = m.outcomeFromInstance(pat, inst, p2.uniq.Draws()-d0)
			}
		}
		if st != nil {
			st.outcomes[int32(c)] = oc
		}
		for inst != nil {
			res.Report.CandidatesMatched++
			var sig string
			sig, sigBuf = inst.signature(sigBuf)
			if !seen[sig] {
				seen[sig] = true
				res.Instances = append(res.Instances, inst)
				res.Report.Instances++
				res.Report.MatchedDevices += len(inst.DevMap)
			}
			if m.opts.Policy != NonOverlapping {
				// MatchAll reports at most one instance per candidate; the
				// candidate loop continues with the next c.
				break
			}
			for _, gd := range inst.DevMap {
				m.consumed[gd.Index] = true
			}
			if m.opts.MaxInstances > 0 && len(res.Instances) >= m.opts.MaxInstances {
				break
			}
			// NonOverlapping: retry the same candidate in case several
			// disjoint instances share the key image (possible when the key
			// is a shared net).
			inst = p2.verifyCandidate(key, c)
			if err := p2.cancelled(); err != nil {
				return m.cutPhase2(res, t1, p2Ref, err)
			}
		}
	}
	res.Report.Phase2Duration = time.Since(t1)
	if o := m.opts.Observe; o != nil {
		o.AttrInt(p2Ref, "candidates", int64(res.Report.Candidates))
		o.AttrInt(p2Ref, "filtered", int64(res.Report.Filtered))
		if st != nil {
			o.AttrInt(p2Ref, "replayed", int64(res.Report.Replayed))
			o.AttrInt(p2Ref, "recomputed", int64(res.Report.Recomputed))
		}
		o.AttrInt(p2Ref, "instances", int64(res.Report.Instances))
		o.End(p2Ref)
	}
	return nil
}

// cutPhase2 closes a Phase II run that Options.Cancel cut short and hands
// back the cancellation error.
func (m *Matcher) cutPhase2(res *Result, t1 time.Time, p2Ref obs.SpanRef, err error) error {
	res.Report.CancelledAt = "phase2"
	res.Report.Phase2Duration = time.Since(t1)
	if o := m.opts.Observe; o != nil {
		o.AttrInt(p2Ref, "candidates", int64(res.Report.Candidates))
		o.AttrInt(p2Ref, "filtered", int64(res.Report.Filtered))
		o.End(p2Ref)
	}
	return err
}
