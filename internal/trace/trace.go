// Package trace is the matcher's structured observability layer: a
// low-overhead, pluggable event sink that internal/core emits into at the
// algorithm's phase boundaries.  Where internal/stats answers "how much did
// the whole run cost", trace answers "what happened, in order": one event
// per Phase I relabeling pass (which side relabeled, how many pattern
// vertices stayed valid, how many partitions they form, how much of the
// main graph survives the consistency prune), one event for the
// candidate-vector selection (key vertex, |CV|), and one event per Phase II
// candidate (matched or failed, relabeling passes, guesses, backtracks,
// wall time) — exactly the per-stage data the paper's worked example
// (Fig. 2/4 and Table 1) walks through.
//
// The zero-cost contract: a nil core.Options.Tracer emits nothing and adds
// no work to the hot loops, and the no-op Nop sink adds zero allocations
// per event (events are plain structs passed by value; asserted by
// TestNopTracerNoAllocs in internal/core).  Sinks provided here:
//
//   - Nop: discards events; the explicit form of "tracing off".
//   - Collector: a fixed-capacity ring buffer keeping the newest events in
//     memory, for tests, tools, and embedding.
//   - JSONLWriter: streams events as JSON Lines under the versioned schema
//     SchemaV1 ("subgemini-trace/v1"), the on-disk format written by
//     `subgemini -trace out.jsonl` and read back by `tracefmt`.
//   - Multi: fans one event stream out to several sinks.
//
// Render turns an event sequence back into the human-readable pass/
// candidate tables that cmd/tracefmt prints and ALGORITHM.md embeds.
//
// Concurrency: core.Find emits from a single goroutine, but FindParallel
// emits candidate events from every worker, so a Tracer shared with a
// parallel run must be safe for concurrent use.  Collector and JSONLWriter
// are; Nop trivially is.
package trace

// Kind discriminates the event variants.  Every Event carries exactly one
// kind; the other fields are meaningful only for the kinds documented on
// each constant.
type Kind string

const (
	// KindRunStart opens a matching run: Circuit and Pattern name the two
	// graphs, Devices/Nets give the main graph's size.
	KindRunStart Kind = "run_start"
	// KindPhase1Pass records one Phase I relabeling pass over one vertex
	// side: Pass (1-based iteration), Side, the pattern's valid/corrupt
	// split and valid-partition count, and the main graph's active/pruned
	// split after the consistency check.
	KindPhase1Pass Kind = "phase1_pass"
	// KindCandidateVector records the Phase I outcome: KeyVertex (empty
	// when no candidates survive), KeyIsDevice, and CVSize.
	KindCandidateVector Kind = "candidate_vector"
	// KindPhase2Candidate records one Phase II candidate verification:
	// Candidate names the postulated image of the key vertex, Matched says
	// whether a verified instance was built, Passes/Guesses/Backtracks/
	// BallSize/DurationNS give the effort the candidate cost, and
	// GuessLimited says the search refused a guess at the depth bound, so
	// a refuted candidate may hide an instance.
	KindPhase2Candidate Kind = "phase2_candidate"
	// KindRunEnd closes a run: Instances found and Candidates examined.
	KindRunEnd Kind = "run_end"
)

// Side tells which vertex kind a Phase I pass relabeled.
type Side string

const (
	SideNets    Side = "nets"
	SideDevices Side = "devices"
)

// Event is one trace record.  It is a single flat struct rather than a
// per-kind type so emission never allocates (values are passed on the
// stack) and so the JSONL encoding stays a one-line-per-event format;
// fields not used by an event's Kind are zero and omitted from JSON.
type Event struct {
	Kind Kind `json:"kind"`

	// KindRunStart / KindRunEnd.
	Circuit string `json:"circuit,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Devices int    `json:"devices,omitempty"`
	Nets    int    `json:"nets,omitempty"`

	// KindPhase1Pass.
	Pass              int  `json:"pass,omitempty"`
	Side              Side `json:"side,omitempty"`
	PatternValid      int  `json:"pattern_valid,omitempty"`
	PatternCorrupt    int  `json:"pattern_corrupt,omitempty"`
	PatternPartitions int  `json:"pattern_partitions,omitempty"`
	MainActive        int  `json:"main_active,omitempty"`
	MainPruned        int  `json:"main_pruned,omitempty"`

	// KindCandidateVector.
	KeyVertex   string `json:"key_vertex,omitempty"`
	KeyIsDevice bool   `json:"key_is_device,omitempty"`
	CVSize      int    `json:"cv_size,omitempty"`

	// KindPhase2Candidate.
	Candidate    string `json:"candidate,omitempty"`
	Matched      bool   `json:"matched,omitempty"`
	Passes       int    `json:"passes,omitempty"`
	Guesses      int    `json:"guesses,omitempty"`
	Backtracks   int    `json:"backtracks,omitempty"`
	GuessLimited bool   `json:"guess_limited,omitempty"`
	BallSize     int    `json:"ball_size,omitempty"` // extracted ball vertices
	DurationNS   int64  `json:"duration_ns,omitempty"`

	// KindRunEnd.
	Instances  int `json:"instances,omitempty"`
	Candidates int `json:"candidates,omitempty"`
}

// Tracer is the pluggable sink the matcher emits into.  Implementations
// must not retain the Event past the call (copy it if needed — Collector
// does), must not panic, and should return quickly: Event is called from
// inside the matching loops.
type Tracer interface {
	Event(Event)
}

// Nop is the no-op sink: every event is discarded.  It exists so callers
// can thread an always-non-nil Tracer through their plumbing and so the
// overhead tests have an explicit "tracing enabled but free" baseline.
type Nop struct{}

// Event discards e.
func (Nop) Event(Event) {}

// Multi fans events out to every sink in order.  A nil entry is skipped.
// Multi itself adds no synchronization: it is as concurrency-safe as its
// least safe element.
func Multi(sinks ...Tracer) Tracer {
	filtered := make([]Tracer, 0, len(sinks))
	for _, t := range sinks {
		if t != nil {
			filtered = append(filtered, t)
		}
	}
	return multi(filtered)
}

type multi []Tracer

func (m multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}
