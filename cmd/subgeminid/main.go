// Subgeminid is the long-lived matching daemon: it keeps a main circuit
// and the pattern library resident in memory and serves match queries over
// HTTP/JSON, amortizing the parse/compile work the one-shot CLIs repeat on
// every invocation.
//
// Usage:
//
//	subgeminid -addr :8080 -circuit chip.sp -globals VDD,GND [flags]
//
// The daemon may also start empty and receive circuits over HTTP.  It
// holds many named circuits at once; matches select one with ?circuit= or
// the request's "circuit" field (default: the circuit named "default").
// Endpoints:
//
//	POST /v1/match               match one pattern against a stored circuit
//	POST /v1/match/batch         match many patterns in one request
//	PUT  /v1/circuits/{name}     store/replace a named circuit
//	PATCH /v1/circuits/{name}    apply an edit batch (JSON delta ops)
//	GET  /v1/circuits/{name}     describe a named circuit
//	GET  /v1/circuits/{name}/versions  the circuit's edit-version log
//	DEL  /v1/circuits/{name}     delete a named circuit (and its snapshot)
//	GET  /v1/circuits            list stored circuits
//	POST /v1/circuit             legacy: replace the "default" circuit
//	GET  /v1/circuit             legacy: describe the "default" circuit
//	POST /v1/jobs                submit an async match/batch/sweep/extract job
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           poll a job (state, result when done)
//	DEL  /v1/jobs/{id}           cancel a queued or running job
//	GET  /v1/cells               list built-in cells and uploaded patterns
//	GET  /healthz                liveness probe (process is up)
//	GET  /readyz                 readiness probe (not draining, store healthy)
//	GET  /metrics                Prometheus-style metrics: counters, store
//	                             and job gauges, per-phase histograms,
//	                             per-pattern outcome counters
//	GET  /debug/requests         flight recorder: kept request timelines
//	GET  /debug/requests/{id}    one request's span timeline(s) by ID
//	GET  /debug/pprof/           Go runtime profiles (CPU, heap, ...)
//
// Flags:
//
//	-addr :8080          listen address
//	-circuit chip.sp     netlist whose top-level cards form the circuit
//	-patterns lib.sp     netlist whose .SUBCKTs preload the pattern cache
//	-globals VDD,GND     special signals applied to every match
//	-data-dir DIR        durable state: circuit snapshots, uploaded
//	                     patterns, and job records live here and are
//	                     reloaded on boot (empty = memory only)
//	-max-circuit-bytes N resident-circuit memory budget; over it, idle
//	                     snapshotted circuits are demoted to disk and
//	                     reloaded on demand (0 = unbounded)
//	-job-workers N       async job worker pool size (0 = 2)
//	-job-queue N         async job queue depth (0 = 64)
//	-job-retention D     how long finished job records are kept (0 = 1h)
//	-timeout 30s         default per-request match deadline
//	-max-concurrent N    match slots (admission control; 0 = GOMAXPROCS)
//	-shed-inflight N     shed batch/sweep/job submissions (429+Retry-After)
//	                     while N matches are in flight; single matches
//	                     stay live (0 = off)
//	-shed-memory-bytes N same, while the Go heap in use is >= N (0 = off)
//	-retry-after D       Retry-After hint on shed responses (0 = 2s)
//	-faults SPEC         arm fault-injection points (testing only); also
//	                     settable via $SUBGEMINID_FAULTS
//	-log-format text     daemon log encoding: "text" or "json"
//	-slow-request D      requests over D log a slow-request line and are
//	                     always kept by the flight recorder (0 = 1s)
//	-flight-recorder N   flight-recorder ring capacity in timelines (0 = 256)
//	-flight-sample N     tail-sampling rate for unremarkable requests:
//	                     keep 1 in N (0 = 16; 1 keeps everything)
//	-result-cache N      versioned result-cache capacity in (circuit,
//	                     pattern) entries (0 = 256); every match and sweep
//	                     consults the cache, and a replay answers what a
//	                     full run answers (since_version forces one)
//	-drain D             graceful-shutdown drain period
//
// The limits without a flag keep their server defaults: client deadlines
// are capped at 5m, per-request fan-out at GOMAXPROCS, request bodies at
// 16 MiB and the compiled-pattern cache at 256 entries; the built-in
// library is compiled at startup, and the log level is info.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// not-ready, the listener stops accepting, in-flight requests get a drain
// period, running jobs are drained (queued ones are cancelled), and
// snapshots are flushed before the process exits.
//
// OPERATIONS.md is the operator runbook: every flag and endpoint, the
// overload and failure behavior, and the generated metrics reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"subgemini"
	"subgemini/internal/faults"
	"subgemini/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subgeminid: ")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run configures and serves the daemon until ctx is cancelled; tests drive
// it directly with a cancellable context.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("subgeminid", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		addr        = flags.String("addr", ":8080", "listen address")
		circuitPath = flags.String("circuit", "", "netlist file with the main circuit (optional; may be uploaded later)")
		patternPath = flags.String("patterns", "", "netlist file whose .SUBCKTs preload the pattern cache")
		globalsCSV  = flags.String("globals", "", "comma-separated special-signal nets applied to every match")
		timeout     = flags.Duration("timeout", 30*time.Second, "default per-request match deadline")
		maxConc     = flags.Int("max-concurrent", 0, "concurrent match slots (0 = GOMAXPROCS)")
		resultCache = flags.Int("result-cache", 0, "versioned result-cache capacity in (circuit, pattern) entries (0 = 256)")
		drain       = flags.Duration("drain", 10*time.Second, "graceful-shutdown drain period")
		dataDir     = flags.String("data-dir", "", "directory for durable state: circuit snapshots, uploaded patterns, job records (empty = memory only)")
		maxCktBytes = flags.Int64("max-circuit-bytes", 0, "resident-circuit memory budget in bytes; idle snapshotted circuits past it are demoted to disk (0 = unbounded)")
		jobWorkers  = flags.Int("job-workers", 0, "async job worker pool size (0 = 2)")
		jobQueue    = flags.Int("job-queue", 0, "async job queue depth (0 = 64)")
		jobKeep     = flags.Duration("job-retention", 0, "how long finished job records are retained (0 = 1h)")
		shedIn      = flags.Int("shed-inflight", 0, "shed batch/sweep/job submissions while this many matches are in flight (0 = off)")
		shedMem     = flags.Int64("shed-memory-bytes", 0, "shed batch/sweep/job submissions while the Go heap in use is at or past this (0 = off)")
		retryAfter  = flags.Duration("retry-after", 0, "Retry-After hint on shed responses, rounded to whole seconds (0 = 2s)")
		faultSpec   = flags.String("faults", "", "arm fault-injection points, e.g. 'store.reload=error:1,jobs.run=panic' (testing only; overrides $SUBGEMINID_FAULTS)")
		logFormat   = flags.String("log-format", "text", `log encoding: "text" or "json"`)
		slowReq     = flags.Duration("slow-request", 0, "requests over this duration log a slow-request line and are always kept by the flight recorder (0 = 1s)")
		flightSize  = flags.Int("flight-recorder", 0, "flight-recorder ring capacity in timelines (0 = 256)")
		flightN     = flags.Int("flight-sample", 0, "tail-sampling rate for unremarkable requests, keep 1 in N (0 = 16; 1 keeps everything)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf(`-log-format %q: want "text" or "json"`, *logFormat)
	}
	if spec := *faultSpec; spec != "" || os.Getenv("SUBGEMINID_FAULTS") != "" {
		if spec == "" {
			spec = os.Getenv("SUBGEMINID_FAULTS")
		}
		n, err := faults.ArmString(spec)
		if err != nil {
			return fmt.Errorf("arming faults: %w", err)
		}
		fmt.Fprintf(stderr, "subgeminid: FAULT INJECTION ARMED: %d point(s) from %q\n", n, spec)
	}

	cfg := subgemini.ServerConfig{
		DefaultTimeout:     *timeout,
		MaxConcurrent:      *maxConc,
		ShedInflight:       *shedIn,
		ShedMemoryBytes:    *shedMem,
		RetryAfter:         *retryAfter,
		PreloadBuiltins:    true,
		ResultCacheSize:    *resultCache,
		DataDir:            *dataDir,
		MaxStoreBytes:      *maxCktBytes,
		JobWorkers:         *jobWorkers,
		JobQueue:           *jobQueue,
		JobRetention:       *jobKeep,
		Log:                obs.NewLogger(stderr, *logFormat, "info"),
		SlowRequest:        *slowReq,
		FlightRecorderSize: *flightSize,
		FlightSampleN:      *flightN,
	}
	if *globalsCSV != "" {
		cfg.Globals = strings.Split(*globalsCSV, ",")
	}
	if *circuitPath != "" {
		ckt, err := loadCircuit(*circuitPath)
		if err != nil {
			return err
		}
		cfg.Circuit = ckt
		fmt.Fprintf(stdout, "circuit %s: %d devices, %d nets\n", ckt.Name, ckt.NumDevices(), ckt.NumNets())
	}
	srv, err := subgemini.NewServer(cfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "data dir %s: %d circuit(s) loaded\n", *dataDir, srv.StoredCircuits())
	}
	if *patternPath != "" {
		n, err := preloadPatterns(srv, *patternPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "preloaded %d pattern(s) from %s\n", n, *patternPath)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down")
	// Flip readiness before the listener drains: load balancers watching
	// /readyz stop routing here while in-flight requests finish.
	srv.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// With the listener drained, close the server itself: running jobs get
	// the rest of the drain period, queued jobs are cancelled, snapshots
	// flush.
	if err := srv.Close(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadCircuit parses a netlist file and flattens its top level.
func loadCircuit(path string) (*subgemini.Circuit, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := subgemini.ReadNetlist(r, path)
	if err != nil {
		return nil, err
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return f.MainCircuit(strings.TrimSuffix(name, ".sp"))
}

// preloadPatterns compiles every .SUBCKT of a netlist file into the
// server's pattern cache.
func preloadPatterns(srv *subgemini.Server, path string) (int, error) {
	r, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	f, err := subgemini.ReadNetlist(r, path)
	if err != nil {
		return 0, err
	}
	return srv.PreloadPatterns(f)
}
