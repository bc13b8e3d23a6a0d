// Package server implements the subgeminid daemon logic: a long-lived
// HTTP/JSON matching service hosting many named circuits and a library of
// compiled patterns in memory, serving synchronous match queries and
// asynchronous jobs against them.  It amortizes the per-pattern
// parse/compile cost the one-shot CLIs pay on every invocation (patterns
// are compiled once into a bounded LRU cache) and the per-circuit
// flattening cost (each stored circuit keeps its CSR view and Phase II
// scratch pool), and adds the robustness a daemon needs: a semaphore
// capping concurrent synchronous match work, per-request timeouts enforced
// through the matcher's cancellation hook, request-body size limits, and
// panic isolation.
//
// Endpoints:
//
//	POST   /v1/match                match one pattern (?circuit= selects the target)
//	POST   /v1/match/batch          match many patterns in one request
//	PUT    /v1/circuits/{name}      store or replace a named circuit (netlist body)
//	PATCH  /v1/circuits/{name}      apply a batch of edit ops, bumping the version
//	GET    /v1/circuits/{name}      describe one stored circuit
//	GET    /v1/circuits/{name}/versions  list the circuit's edit history
//	DELETE /v1/circuits/{name}      remove a stored circuit and its snapshot
//	GET    /v1/circuits             list stored circuits
//	POST   /v1/circuit              legacy alias: store the default circuit
//	GET    /v1/circuit              legacy alias: describe the default circuit
//	POST   /v1/jobs                 submit an async job (match, batch, extract)
//	GET    /v1/jobs                 list retained jobs
//	GET    /v1/jobs/{id}            poll one job's state and result
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /v1/cells                list built-in cells and uploaded patterns
//	GET    /healthz                 liveness probe (process is up)
//	GET    /readyz                  readiness probe (not draining, store healthy)
//	GET    /metrics                 Prometheus-style text metrics
//	GET    /debug/requests          flight recorder: recent request timelines, with filters
//	GET    /debug/requests/{id}     full span timeline JSON for one request ID
//	GET    /debug/pprof/            Go runtime profiles (CPU, heap, goroutine, ...)
//
// Circuits live in an internal/store Store: named, ref-counted entries
// owning the circuit, its CSR view, and its scratch pool, LRU-demoted
// under a byte budget and — with a data directory — snapshotted to disk
// and reloaded on boot.  Jobs live in an internal/jobs Engine: a bounded
// queue and worker pool whose records survive restarts (interrupted jobs
// are reported failed, not lost).
//
// Concurrency model: each stored circuit, and each cached pattern, is
// shared by all in-flight matches against it without a lock, because
// matches, sweeps and extract jobs only read them.  A request's globals
// are an input of that request's run (core.Options.Globals): the matcher
// takes the union of them, the pattern's declared globals and the
// circuit's own marks (config globals and the upload's .GLOBAL nets) for
// the run and writes none of it back, so no request changes another's
// answer.  Replacing a name installs a fresh entry — in-flight matches
// keep the old circuit alive through their ref-counted handles, so uploads
// never block behind long matches — and a PATCH edits in place only while
// no other handle holds the circuit.
//
// Under overload the daemon sheds by priority rather than degrading
// uniformly: when the configured inflight or heap budget is exceeded
// (Config.ShedInflight / Config.ShedMemoryBytes), the bulk endpoints —
// batch matches, sweeps, and async job submission — answer 429 with a
// Retry-After hint while single synchronous matches keep flowing through
// admission control.  /readyz reports not-ready while the daemon is
// draining for shutdown or the store's last persistence operation failed
// (see store.Healthy), so orchestrators stop routing before requests start
// failing; /healthz stays a pure liveness probe.  See OPERATIONS.md for
// the operator-facing view of all of this.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
	"subgemini/internal/jobs"
	"subgemini/internal/netlist"
	"subgemini/internal/obs"
	"subgemini/internal/store"
)

func init() {
	faults.Register("server.handler", "start of every HTTP request, inside the panic-isolation scope (error answers 503, panic exercises recovery)")
}

// DefaultCircuit is the store key the legacy single-circuit endpoints
// (POST/GET /v1/circuit) and circuit-less match requests operate on.
const DefaultCircuit = "default"

// Config parameterizes a Server.  The zero value is usable: an empty
// memory-only server with no circuits loaded (upload via PUT
// /v1/circuits/{name}) and defaults for every limit.
type Config struct {
	// Circuit is the initial default circuit (stored under DefaultCircuit);
	// nil starts the server empty.  It takes precedence over a snapshot of
	// the default circuit reloaded from DataDir.  The server takes
	// ownership: a PATCH may edit the circuit in place (see store.Put), so
	// the caller must not read or modify it afterwards; pass a clone to
	// keep a copy.
	Circuit *graph.Circuit

	// Globals lists net names treated as special signals for every match
	// (the daemon-level analogue of the CLI's -globals flag).  They are
	// marked on every stored circuit (see store.Config.Globals).
	Globals []string

	// DataDir, when non-empty, makes circuits and jobs durable: circuit
	// snapshots and the store manifest live under it, job records under
	// DataDir/jobs, and both are reloaded on construction.  "" keeps
	// everything in memory.
	DataDir string

	// MaxStoreBytes bounds the estimated resident bytes of stored
	// circuits; least-recently-used idle circuits with snapshots are
	// demoted past it and reloaded on demand.  0 = unlimited.
	MaxStoreBytes int64

	// MaxPatterns caps the compiled-pattern cache entries; the
	// least-recently-used pattern is evicted past it.  0 selects 256.
	MaxPatterns int

	// JobWorkers sizes the async job worker pool (0 = 2).
	JobWorkers int

	// JobQueue bounds queued-but-not-started jobs (0 = 64).
	JobQueue int

	// JobRetention keeps finished job records and results visible this
	// long (0 = 1h).
	JobRetention time.Duration

	// MaxConcurrent caps simultaneously executing synchronous match runs
	// (admission control); further requests queue until a slot frees or
	// their deadline expires.  0 selects GOMAXPROCS.  Async jobs are
	// bounded by JobWorkers instead.
	MaxConcurrent int

	// DefaultTimeout bounds each synchronous match request that does not
	// set its own timeout_ms.  0 selects 30s.  Jobs have no default
	// deadline — escaping the request-timeout envelope is their purpose —
	// but honor a per-request timeout_ms when set.
	DefaultTimeout time.Duration

	// MaxTimeout caps the per-request timeout_ms so a client cannot pin a
	// worker slot arbitrarily long.  0 selects 5m.
	MaxTimeout time.Duration

	// MaxBodyBytes limits request body sizes (netlist uploads included).
	// 0 selects 16 MiB.
	MaxBodyBytes int64

	// MaxWorkers caps the per-request "workers" fan-out.  0 selects
	// GOMAXPROCS.
	MaxWorkers int

	// ShedInflight, when > 0, turns on priority load shedding: while at
	// least this many synchronous match runs are in flight, the bulk
	// endpoints (POST /v1/match/batch, POST /v1/sweep, POST /v1/jobs) are
	// shed with 429 + Retry-After so single POST /v1/match requests keep
	// getting slots.  0 disables inflight-based shedding.
	ShedInflight int

	// ShedMemoryBytes, when > 0, sheds the same bulk endpoints while the
	// Go heap in use is at or past this many bytes — bulk work is the
	// memory amplifier (wide batches, whole-library sweeps), so it is what
	// gets turned away first.  0 disables memory-based shedding.
	ShedMemoryBytes int64

	// RetryAfter is the Retry-After hint on shed responses, rounded down
	// to whole seconds (minimum 1).  0 selects 2s.
	RetryAfter time.Duration

	// PreloadBuiltins compiles every built-in library cell into the
	// pattern cache at construction time, so first requests are cache
	// hits.  Preloading counts neither hits nor misses.
	PreloadBuiltins bool

	// DisableIncremental turns off the versioned result cache: every match
	// and sweep runs the full engines regardless of edit history, and the
	// "incremental-sweep" job kind is refused.  Results are bit-identical
	// either way (the incremental engine is differentially tested against
	// the full one); this is the operational escape hatch, mirrored by the
	// daemon's -noincremental flag.
	DisableIncremental bool

	// ResultCacheSize bounds the versioned result cache entries (one per
	// circuit × pattern structure pair); 0 selects the delta package
	// default.
	ResultCacheSize int

	// Log, when non-nil, is the structured logger for every server-side
	// event (handler panics, store evictions, job recovery, slow-request
	// lines); build one with obs.NewLogger.  Nil falls back to Logf, then
	// to discarding.
	Log *slog.Logger

	// Logf, when non-nil and Log is nil, receives the same events as
	// pre-rendered printf lines.  Retained for embedders and tests that
	// capture log output as strings.
	Logf func(format string, args ...any)

	// SlowRequest is the latency at or past which a request is always kept
	// by the flight recorder and logged with its top spans inline.
	// 0 selects 1s.
	SlowRequest time.Duration

	// FlightRecorderSize is how many completed request timelines the
	// flight recorder ring retains for /debug/requests.  0 selects 256.
	FlightRecorderSize int

	// FlightSampleN keeps one in N uninteresting requests (errors, sheds,
	// cancellations, and slow requests are always kept).  0 selects 16.
	FlightSampleN int
}

// Server is the daemon state.  Create one with New; it implements
// http.Handler.
type Server struct {
	cfg Config

	store *store.Store
	jobs  *jobs.Engine
	cache *patternCache
	sem   chan struct{}
	met   metrics
	mux   *http.ServeMux

	// rcache is the versioned incremental-match result cache; nil when
	// Config.DisableIncremental is set (the full engines always run).
	rcache *delta.ResultCache

	// log is the resolved structured logger (never nil) and rec the
	// always-on tail-sampling flight recorder behind /debug/requests.
	log *slog.Logger
	rec *obs.Recorder

	// Request IDs are a boot nonce plus a process-local sequence; an
	// inbound X-Request-Id that sanitizes cleanly is honored instead.
	ridBoot string
	ridSeq  atomic.Uint64

	// draining flips once shutdown begins: /readyz goes not-ready so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool

	// mem coarsely samples the Go heap for memory-based shedding.
	mem memSampler

	// testCandidateHook, when non-nil, runs on every cancellation poll of
	// every match.  Tests use it to make runs deterministically slow or to
	// coordinate with in-flight requests.
	testCandidateHook func()
}

// New builds a Server from cfg, reloading any circuits, patterns, and job
// records persisted under cfg.DataDir.  A corrupt store manifest or
// unreadable snapshot is a construction error — the daemon refuses to boot
// rather than silently drop circuits.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		cache:   newPatternCache(cfg.MaxPatterns),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		rec:     obs.NewRecorder(cfg.FlightRecorderSize, cfg.FlightSampleN, cfg.SlowRequest),
		ridBoot: fmt.Sprintf("r-%08x", time.Now().UnixNano()&0xffffffff),
	}
	switch {
	case cfg.Log != nil:
		s.log = cfg.Log
	case cfg.Logf != nil:
		s.log = obs.LogfLogger(cfg.Logf)
	default:
		s.log = obs.Discard()
	}
	if !cfg.DisableIncremental {
		s.rcache = delta.NewResultCache(cfg.ResultCacheSize)
	}
	st, err := store.Open(store.Config{
		Dir:      cfg.DataDir,
		MaxBytes: cfg.MaxStoreBytes,
		Globals:  cfg.Globals,
		Log:      s.log.With("component", "store"),
	})
	if err != nil {
		return nil, fmt.Errorf("opening circuit store: %w", err)
	}
	s.store = st
	jobsDir := ""
	if cfg.DataDir != "" {
		jobsDir = filepath.Join(cfg.DataDir, "jobs")
	}
	eng, err := jobs.New(jobs.Config{
		Workers:   cfg.JobWorkers,
		Queue:     cfg.JobQueue,
		Retention: cfg.JobRetention,
		Dir:       jobsDir,
		Log:       s.log.With("component", "jobs"),
	})
	if err != nil {
		return nil, fmt.Errorf("starting job engine: %w", err)
	}
	s.jobs = eng
	if cfg.Circuit != nil {
		if _, err := s.store.Put(DefaultCircuit, cfg.Circuit); err != nil {
			return nil, fmt.Errorf("storing initial circuit: %w", err)
		}
	}
	// Patterns persisted by a previous run re-enter the compiled cache so
	// a restarted daemon stays warm; preloads count neither hits nor
	// misses.
	for name, tpl := range s.store.Patterns() {
		s.cache.put(name, tpl, false)
	}
	if cfg.PreloadBuiltins {
		s.preloadBuiltins()
	}
	s.routes()
	return s, nil
}

// Close shuts the daemon's background state down: the job engine drains
// (running jobs get until ctx's deadline, queued jobs are cancelled) and
// the store flushes its manifest.  Call it after the HTTP listener stops.
func (s *Server) Close(ctx context.Context) error {
	jerr := s.jobs.Close(ctx)
	if serr := s.store.Close(); serr != nil {
		return serr
	}
	return jerr
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/match", s.handleMatch)
	s.mux.HandleFunc("POST /v1/match/batch", s.handleBatch)
	s.mux.HandleFunc("PUT /v1/circuits/{name}", s.handleCircuitPut)
	s.mux.HandleFunc("PATCH /v1/circuits/{name}", s.handleCircuitPatch)
	s.mux.HandleFunc("GET /v1/circuits/{name}", s.handleCircuitGet)
	s.mux.HandleFunc("GET /v1/circuits/{name}/versions", s.handleCircuitVersions)
	s.mux.HandleFunc("DELETE /v1/circuits/{name}", s.handleCircuitDelete)
	s.mux.HandleFunc("GET /v1/circuits", s.handleCircuitList)
	// Legacy single-circuit API: aliases for the default circuit.
	s.mux.HandleFunc("POST /v1/circuit", s.handleLegacyCircuitUpload)
	s.mux.HandleFunc("GET /v1/circuit", s.handleLegacyCircuitInfo)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("PUT /v1/libraries/{name}", s.handleLibraryPut)
	s.mux.HandleFunc("GET /v1/libraries/{name}", s.handleLibraryGet)
	s.mux.HandleFunc("DELETE /v1/libraries/{name}", s.handleLibraryDelete)
	s.mux.HandleFunc("GET /v1/libraries", s.handleLibraryList)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/cells", s.handleCells)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Flight recorder: recent request timelines, filterable, and a full
	// span tree per request ID (see internal/obs and OPERATIONS.md
	// "Request forensics").
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequestByID)
	// Go's profiling endpoints, on the daemon's own mux rather than
	// http.DefaultServeMux, so they share the panic isolation and request
	// accounting of every other route.  pprof.Index also serves the named
	// runtime profiles (heap, goroutine, block, mutex, ...).
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// preloadBuiltins warms the pattern cache with the whole built-in library.
func (s *Server) preloadBuiltins() {
	for _, info := range s.cache.list() {
		if !info.Cached {
			s.cache.resolve(info.Name, false)
		}
	}
}

// PreloadPatterns compiles every .SUBCKT of a parsed netlist into the
// pattern cache as uploaded patterns, keyed by subcircuit name.  Preloads
// count neither cache hits nor misses.  It returns how many patterns were
// added before the first compile error, if any.
func (s *Server) PreloadPatterns(f *netlist.File) (int, error) {
	n := 0
	for name := range f.Subckts {
		template, err := f.Pattern(name)
		if err != nil {
			return n, fmt.Errorf("pattern %s: %w", name, err)
		}
		s.cache.put(name, template, false)
		n++
	}
	return n, nil
}

// statusWriter captures the response status for request accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP wraps the router with body limits, request accounting, panic
// isolation, and request telemetry: every request gets an ID (minted, or
// honored from an inbound X-Request-Id), a span timeline carried on the
// context, and an X-Request-Id response header — on every outcome,
// including sheds, faults, and panics.  A panicking handler yields a 500
// response and a log line, never a dead daemon.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	tl := obs.NewTimeline(s.mintRequestID(r), "http", r.Method, r.URL.Path)
	r = r.WithContext(obs.NewContext(r.Context(), tl))
	w.Header().Set("X-Request-Id", tl.ID())
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			buf := make([]byte, 8<<10)
			buf = buf[:runtime.Stack(buf, false)]
			s.log.ErrorContext(r.Context(), "panic serving request",
				"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec), "stack", string(buf))
			if sw.status == 0 {
				http.Error(sw, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}
		if sw.status >= 400 {
			s.met.errors.Add(1)
		}
		s.finishRequest(tl, sw.status)
	}()
	// Fault point inside the recovery scope: error mode turns requests
	// away with 503, panic mode exercises the isolation path above.
	if err := faults.Fire("server.handler"); err != nil {
		writeError(sw, errf(http.StatusServiceUnavailable, "injected handler fault: %v", err))
		return
	}
	s.mux.ServeHTTP(sw, r)
}

// StoredCircuits returns how many circuits the store holds (resident or
// demoted to disk).
func (s *Server) StoredCircuits() int { return s.store.Len() }

// CircuitShape returns the default circuit's name and size (0, 0 and ""
// when none is stored).
func (s *Server) CircuitShape() (name string, devices, nets int) {
	info, ok := s.store.Get(DefaultCircuit)
	if !ok {
		return "", 0, 0
	}
	return info.Display, info.Devices, info.Nets
}
