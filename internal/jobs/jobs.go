// Package jobs is subgeminid's async work engine: a bounded queue feeding
// a fixed worker pool, with job records that survive daemon restarts.
//
// Synchronous HTTP matching is bounded by request timeouts, which caps the
// work a client can ask for; extraction-scale runs (replacing every
// library cell in a million-device netlist) do not fit that envelope.  A
// job instead returns an id immediately and runs under a worker; clients
// poll its state and fetch the result when done.  Results are retained
// for a configurable TTL after completion and then pruned.
//
// States move queued → running → done | failed | cancelled.  Cancelling a
// queued job is immediate; cancelling a running job cancels its context,
// which the matcher polls at bounded intervals throughout both phases —
// including inside a single Phase II candidate's solve recursion — so the
// worker frees promptly even mid-way through a pathological match.
//
// Durability: with a directory configured, submission and every terminal
// state rewrite the job's record (<dir>/<id>.json, temp file + fsync +
// rename).  Entering running does not: boot fails a queued and a running
// record alike, so that write would buy nothing for its fsync; the record
// of a job a crash interrupted therefore lacks started_unix_ms.  Record
// writes retry a bounded number of times with a short backoff before
// giving up — transient store I/O errors (a full page cache flush, an
// interrupted syscall) must not silently drop a transition — and the
// retry count is surfaced in Counters.PersistRetries.  A write that still
// fails after the retries is logged, not returned: an unwritable record
// must not wedge the job lifecycle (the in-memory state stays
// authoritative until restart).  On boot the engine replays the
// directory; any job found queued or running was interrupted by a crash
// and is marked failed — the engine cannot re-run it (the work closure
// died with the old process), but the client polling that id gets a
// truthful terminal state instead of a 404 or an eternal "running".
//
// Fault injection: the "jobs.persist" point fires on every record-write
// attempt and the "jobs.run" point fires before each work closure
// executes (see internal/faults), so tests and the chaos driver can prove
// the retry loop, the panic isolation, and the boot recovery actually
// work.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"subgemini/internal/faults"
	"subgemini/internal/obs"
)

func init() {
	faults.Register("jobs.persist", "each attempt to write a job record to disk (error exercises the retry loop)")
	faults.Register("jobs.run", "job runner invocation, before the work closure executes (panic exercises worker isolation)")
}

// State is a job's lifecycle position.
type State string

const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Sentinel errors for the API layer to map onto HTTP statuses.
var (
	ErrNotFound  = errors.New("no such job")
	ErrQueueFull = errors.New("job queue is full")
	ErrFinished  = errors.New("job already finished")
	ErrClosed    = errors.New("job engine is shut down")
)

// Config parameterizes New.
type Config struct {
	// Workers is the pool size; 0 selects 2.  Jobs are heavyweight
	// (extraction-scale), so the default stays well under GOMAXPROCS and
	// leaves cores for synchronous traffic.
	Workers int

	// Queue bounds jobs waiting for a worker; 0 selects 64.  A full queue
	// rejects Submit — admission control, not silent buffering.
	Queue int

	// Retention keeps finished jobs (and their results) visible for this
	// long; 0 selects 1h.  Pruning is piggybacked on Submit/Get/List, so
	// an idle engine holds records a little longer — never less.
	Retention time.Duration

	// Dir persists job records; "" keeps them in memory only (no crash
	// recovery).
	Dir string

	// Log, when non-nil, receives recovery, worker-panic, and persistence
	// lines as structured records; nil discards them.
	Log *slog.Logger
}

// View is the client-visible job record; it is also the persisted form.
type View struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	CreatedMS  int64           `json:"created_unix_ms"`
	StartedMS  int64           `json:"started_unix_ms,omitempty"`
	FinishedMS int64           `json:"finished_unix_ms,omitempty"`
	RequestID  string          `json:"request_id,omitempty"`
	Request    json.RawMessage `json:"request,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Runner is the work a job performs.  The context is cancelled when the
// job is cancelled or the engine shuts down hard; the returned value is
// marshalled as the job's result.
type Runner func(ctx context.Context) (any, error)

// job pairs the persisted view with the engine-side run state.
type job struct {
	view      View
	fn        Runner
	cancel    context.CancelFunc
	cancelReq bool
}

// Counters is the engine's monotonic counter set for /metrics.
type Counters struct {
	Submitted      int64
	Done           int64
	Failed         int64
	Cancelled      int64
	Recovered      int64 // interrupted jobs marked failed at boot
	PersistRetries int64 // record-write attempts retried after an I/O error
}

// Engine runs jobs.  Create one with New; stop it with Close.
type Engine struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	queue  chan *job
	nextID int
	closed bool
	counts Counters

	wg sync.WaitGroup
}

// New builds an engine, replays any persisted records (marking interrupted
// jobs failed), and starts the worker pool.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Workers > runtime.GOMAXPROCS(0) {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Retention <= 0 {
		cfg.Retention = time.Hour
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.Queue),
	}
	if cfg.Dir != "" {
		if err := e.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

func nowMS() int64 { return time.Now().UnixMilli() }

// recover replays the job directory: finished jobs are kept for their
// remaining retention; queued or running jobs were interrupted by a crash
// and become failed.  Unreadable records are renamed aside, not fatal — a
// torn job record must not keep the daemon (and every stored circuit)
// from booting.
func (e *Engine) recover() error {
	if err := os.MkdirAll(e.cfg.Dir, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return err
	}
	recovered := 0
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(e.cfg.Dir, name)
		raw, err := os.ReadFile(path)
		var v View
		if err == nil {
			err = json.Unmarshal(raw, &v)
		}
		if err != nil || v.ID == "" {
			e.cfg.Log.Warn("job record unreadable; moved aside", "record", name, "err", err)
			os.Rename(path, path+".corrupt")
			continue
		}
		j := &job{view: v}
		if !v.State.Terminal() {
			j.view.State = Failed
			j.view.Error = "interrupted by daemon restart"
			j.view.FinishedMS = nowMS()
			e.persist(j)
			recovered++
			e.counts.Recovered++
			e.counts.Failed++
		}
		e.jobs[v.ID] = j
		if n, ok := idNumber(v.ID); ok && n >= e.nextID {
			e.nextID = n + 1
		}
	}
	if len(e.jobs) > 0 {
		e.cfg.Log.Info("recovered job records", "records", len(e.jobs), "failed_after_interruption", recovered)
	}
	return nil
}

// idNumber parses the numeric suffix of a job id.
func idNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// Submit enqueues work.  The request payload is stored verbatim on the
// record for clients to correlate; fn runs when a worker frees.
func (e *Engine) Submit(kind string, request json.RawMessage, fn Runner) (View, error) {
	return e.SubmitWithRequestID(kind, "", request, fn)
}

// SubmitWithRequestID is Submit carrying the originating request's telemetry
// ID, persisted on the job record so a /debug/requests lookup by the
// submitting response's X-Request-Id finds the async work it spawned.
func (e *Engine) SubmitWithRequestID(kind, requestID string, request json.RawMessage, fn Runner) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return View{}, ErrClosed
	}
	e.pruneLocked()
	if len(e.queue) == cap(e.queue) {
		return View{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(e.queue))
	}
	j := &job{
		view: View{
			ID:        fmt.Sprintf("j-%06d", e.nextID),
			Kind:      kind,
			State:     Queued,
			RequestID: requestID,
			CreatedMS: nowMS(),
			Request:   request,
		},
		fn: fn,
	}
	e.nextID++
	e.jobs[j.view.ID] = j
	e.counts.Submitted++
	e.persist(j)
	e.queue <- j // cannot block: len < cap checked under the same lock
	return j.view, nil
}

// worker drains the queue until Close closes it.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.run(j)
	}
}

// run executes one job through its lifecycle.
func (e *Engine) run(j *job) {
	e.mu.Lock()
	if j.view.State != Queued { // cancelled while waiting
		e.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.baseCtx)
	j.cancel = cancel
	j.view.State = Running
	j.view.StartedMS = nowMS()
	fn := j.fn
	e.mu.Unlock()

	res, err := e.runSafe(fn, ctx)
	cancel()

	e.mu.Lock()
	defer e.mu.Unlock()
	j.view.FinishedMS = nowMS()
	j.fn, j.cancel = nil, nil
	switch {
	case err != nil && (j.cancelReq || errors.Is(err, context.Canceled)):
		j.view.State = Cancelled
		j.view.Error = err.Error()
		e.counts.Cancelled++
	case err != nil:
		j.view.State = Failed
		j.view.Error = err.Error()
		e.counts.Failed++
	default:
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.view.State = Failed
			j.view.Error = fmt.Sprintf("marshalling result: %v", merr)
			e.counts.Failed++
			break
		}
		j.view.State = Done
		j.view.Result = raw
		e.counts.Done++
	}
	e.persist(j)
}

// runSafe isolates worker goroutines from panicking runners.
func (e *Engine) runSafe(fn Runner, ctx context.Context) (res any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			e.cfg.Log.Error("job runner panicked", "panic", fmt.Sprint(rec))
			err = fmt.Errorf("job panicked: %v", rec)
		}
	}()
	// Inside the recover scope: an armed panic exercises the same isolation
	// a misbehaving runner would.
	if err := faults.Fire("jobs.run"); err != nil {
		return nil, err
	}
	return fn(ctx)
}

// Get returns one job's record.
func (e *Engine) Get(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked()
	j, ok := e.jobs[id]
	if !ok {
		return View{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.view, nil
}

// List returns every retained record, newest first.
func (e *Engine) List() []View {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked()
	out := make([]View, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j.view)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel stops a job: a queued job finalizes immediately; a running job
// has its context cancelled and finalizes when its runner returns (the
// returned View still says "running" in that window).  Cancelling a
// finished job is ErrFinished.
func (e *Engine) Cancel(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return View{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.view.State {
	case Queued:
		j.view.State = Cancelled
		j.view.Error = "cancelled before execution"
		j.view.FinishedMS = nowMS()
		j.fn = nil
		e.counts.Cancelled++
		e.persist(j)
	case Running:
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return j.view, fmt.Errorf("%w: %s is %s", ErrFinished, id, j.view.State)
	}
	return j.view, nil
}

// QueueDepth returns (queued, running) gauges.
func (e *Engine) QueueDepth() (queued, running int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		switch j.view.State {
		case Queued:
			queued++
		case Running:
			running++
		}
	}
	return
}

// Counters returns the monotonic counter snapshot.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts
}

// Close drains the engine: no new submissions, still-queued jobs are
// cancelled, and running jobs get until ctx's deadline to finish before
// their contexts are cancelled.  It returns once the workers exit.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, j := range e.jobs {
		if j.view.State == Queued {
			j.view.State = Cancelled
			j.view.Error = "daemon shutting down"
			j.view.FinishedMS = nowMS()
			j.fn = nil
			e.counts.Cancelled++
			e.persist(j)
		}
	}
	close(e.queue)
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Drain period expired: cancel every running job and wait for the
		// runners to notice (the matcher polls cancellation between passes
		// and candidates, so this converges).
		e.baseCancel()
		<-done
		return ctx.Err()
	}
}

// pruneLocked drops finished jobs past their retention, records included.
func (e *Engine) pruneLocked() {
	cutoff := nowMS() - e.cfg.Retention.Milliseconds()
	for id, j := range e.jobs {
		if j.view.State.Terminal() && j.view.FinishedMS > 0 && j.view.FinishedMS < cutoff {
			delete(e.jobs, id)
			if e.cfg.Dir != "" {
				os.Remove(filepath.Join(e.cfg.Dir, id+".json"))
			}
		}
	}
}

// persistAttempts and persistBackoff bound the record-write retry loop:
// up to three attempts with 2ms/4ms pauses (persist runs with e.mu held,
// so the total stall is kept under ~10ms even when every attempt fails).
const (
	persistAttempts = 3
	persistBackoff  = 2 * time.Millisecond
)

// persist rewrites one job record; called with e.mu held (or from the
// single-threaded boot replay).  Transient I/O errors are retried with a
// short bounded backoff; an error that survives every attempt is logged,
// not returned: an unwritable record must not wedge the job lifecycle
// (the in-memory state stays authoritative until restart).
func (e *Engine) persist(j *job) {
	if e.cfg.Dir == "" {
		return
	}
	var err error
	for attempt := 0; attempt < persistAttempts; attempt++ {
		if attempt > 0 {
			e.counts.PersistRetries++
			time.Sleep(persistBackoff << (attempt - 1))
		}
		if err = e.persistOnce(j); err == nil {
			return
		}
	}
	e.cfg.Log.Error("persisting job record failed", "job", j.view.ID, "attempts", persistAttempts, "err", err)
}

// persistOnce is one atomic record-write attempt: temp file, fsync, rename.
func (e *Engine) persistOnce(j *job) error {
	if err := faults.Fire("jobs.persist"); err != nil {
		return err
	}
	path := filepath.Join(e.cfg.Dir, j.view.ID+".json")
	tmp, err := os.CreateTemp(e.cfg.Dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	err = enc.Encode(&j.view)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	return err
}
