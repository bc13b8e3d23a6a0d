// Package store implements subgeminid's multi-circuit memory: a named,
// ref-counted store of resident circuits, each entry owning the circuit
// graph, its shared flat CSR view, and a Phase II scratch pool sized to it.
//
// The store exists because the paper's motivating workloads (§I:
// library-cell identification, hierarchy extraction, LVS) are long-lived,
// many-query sessions over a few large netlists.  One daemon hosting many
// named circuits amortizes flattening and CSR construction across every
// query against a circuit, while an LRU policy under a configurable byte
// budget keeps the resident set bounded: entries whose snapshot is on disk
// are demoted to non-resident when the budget is exceeded and transparently
// reloaded on next use.
//
// Durability: with a data directory configured, every Put writes a
// snapshot of the circuit (temp file + rename, so a crash never leaves a
// torn snapshot) and then rewrites <dir>/manifest.json the same way.  An
// upload's snapshot is the netlist text it arrived as (PutSource), stored
// verbatim as <dir>/circuits/<name>.sp: boot rebuilds it with the same
// reader, so the reloaded circuit is the one served, net order included.
// A circuit without source text (Put) snapshots as a netlist written by
// internal/netlist.WriteCircuit when netlist.RoundTrips guarantees the
// reader rebuilds exactly the stored circuit: primitive devices named with
// their element letter and carrying the reader's terminal classes, names
// free of whitespace and ';', no unconnected or port nets.  Every other
// such circuit (extracted gate levels, compacted edits of flattened
// hierarchies such as X1/MP1, edits that add devices the reader would
// re-class) snapshots as graph JSON, <dir>/circuits/<name>.json.  A
// snapshot or edit log never overwrites a file the durable manifest
// names: each write takes a fresh name (the first free of <name>.sp,
// <name>~1.sp, <name>~2.sp, ..., and likewise for .json and the .log edit
// log), and the files a replacement, deletion or compaction supersedes
// are removed only after a manifest that no longer needs them is durable.  A crash at any point therefore boots the state
// before or after the interrupted operation; boot removes the files the
// manifest does not name.  On boot, Open replays the manifest, reloading
// every snapshotted circuit and re-marking its globals.  Uploaded pattern
// templates are persisted alongside under <dir>/patterns/ so a restarted
// daemon keeps its compiled pattern library warm.
//
// Concurrency: the store has one mutex for the name table, LRU list, and
// ref counts.  A stored circuit never changes under a handle: matches,
// sweeps and jobs only read it (a request's special signals apply to that
// run, not to the circuit), replacing a name installs a fresh entry while
// in-flight matches keep the old one alive through their handles, and an
// edit rewrites a circuit in place only while no handle but its own
// exists, holding new readers off until it is done (see edits.go).  The
// global marks a circuit carries are its own, the same before and after a
// restart: the store-level globals (on every net of those names, nets an
// edit brings in included), its netlist's .GLOBAL nets, and nets an edit
// adds as global.
//
// Health: the store tracks whether its most recent persistence operation
// (snapshot write, manifest write, snapshot reload) succeeded, exposed
// lock-free through Healthy for the daemon's /readyz endpoint — a store
// whose disk is failing keeps serving resident circuits but reports
// not-ready so load balancers stop routing new work at it.  The
// "store.write-snapshot", "store.write-manifest", and "store.reload"
// fault-injection points (see internal/faults) let tests and the chaos
// driver force those failures deterministically.
package store

import (
	"container/list"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
)

// ErrNotFound reports a name with no store entry.
var ErrNotFound = errors.New("no such circuit")

// Config parameterizes Open.
type Config struct {
	// Dir is the data directory for durable snapshots; "" keeps the store
	// memory-only (no persistence, and no LRU demotion — an entry without
	// a snapshot cannot be reloaded, so it is never evicted).
	Dir string

	// MaxBytes bounds the estimated bytes of resident circuits; 0 means
	// unlimited.  When an insert pushes the total over the budget,
	// least-recently-used idle entries with snapshots are demoted until
	// the total fits (or nothing more is evictable).
	MaxBytes int64

	// Globals lists net names marked global on every stored circuit (the
	// daemon-level special signals), at Put, after each edit batch and at
	// boot.
	Globals []string

	// Log, when non-nil, receives one structured record per eviction,
	// reload, compaction, and boot-time recovery event; nil discards them.
	Log *slog.Logger
}

// Store is the named circuit table.  Create one with Open.
type Store struct {
	dir      string
	maxBytes int64 // MaxBytes; named to discourage direct use, see overLocked
	globals  []string
	log      *slog.Logger

	// manifestMu serializes manifest rewrites, so the manifest on disk is
	// always the last table written, and the removal of superseded files
	// that follows each one.
	manifestMu sync.Mutex

	mu            sync.Mutex
	entries       map[string]*Entry
	lru           *list.List // of *Entry; front = most recently used
	patterns      map[string]*graph.Circuit
	libraries     map[string][]string // library name -> ordered pattern names
	residentBytes int64
	evictions     int64
	reloads       int64
	edits         int64
	csrRebuilds   int64 // edits whose CSR patch degraded to a full rebuild

	// nameLocks serialize the operations that replace, delete or edit one
	// circuit (see lockName).
	nameLocks map[string]*sync.Mutex

	// superseded lists snapshot and edit-log files no entry names any more;
	// writeManifest removes them once a manifest that does not name them is
	// durable.
	superseded []string

	// unhealthy is set while the last persistence operation failed; it is
	// an atomic (not st.mu state) so Healthy can be read from the /readyz
	// path without contending with a slow reload holding the store lock.
	unhealthy atomic.Bool

	// manifestStale is set while the last manifest write failed, so the
	// manifest on disk may lag the table; the next edit rewrites it.
	manifestStale atomic.Bool
}

// Healthy reports whether the store's most recent persistence operation
// (snapshot write, manifest write, or snapshot reload) succeeded.  A
// memory-only store is always healthy.  The read is lock-free.
func (st *Store) Healthy() bool { return !st.unhealthy.Load() }

// noteIO records the outcome of a persistence operation for Healthy.
func (st *Store) noteIO(err error) {
	st.unhealthy.Store(err != nil)
}

// Entry is one named circuit.  The circuit pointer, CSR view, and scratch
// pool are fixed for the entry's lifetime while resident, and the circuit
// does not change under a handle.  The one exception has no handle to see
// it: an edit with no other handle on the entry sets editing, rewrites the
// circuit in place and hands it to the next version's entry (see
// edits.go).
type Entry struct {
	name    string // store key
	display string // circuit's own name (may differ from the key)
	file    string // snapshot filename under dir/circuits, "" = memory-only
	log     string // edit-log filename under dir/circuits (see edits.go)
	globals []string
	saved   time.Time

	elem *list.Element
	refs int
	// editing is set, under st.mu, while ApplyEdits rewrites the circuit
	// in place; Acquire waits for the edit rather than hand out the entry.
	editing bool

	ckt *graph.Circuit
	// view is the circuit's CSR view, which every matcher over the entry
	// shares, and with it the view's Phase II scratch pool and cached
	// initial labeling.
	view     *core.CSR
	bytes    int64
	resident bool

	// stamp names the install the entry descends from: Put and boot give
	// each entry a number no other install in the process shares (see
	// nextStamp), and an edit's entry keeps its predecessor's.  Versions
	// restart at 1 when a name is replaced, so only (stamp, version)
	// names one circuit for the life of the process.
	stamp uint64

	// version numbers the circuit's edit history (1 at Put, +1 per
	// ApplyEdits batch); snapVersion is the version the on-disk snapshot
	// covers (they differ while the edit log holds unfolded records, see
	// edits.go).  steps retains the last stepsKeep edit Steps for
	// Handle.StepsSince; logCount counts records in the on-disk edit log.
	version     uint64
	snapVersion uint64
	steps       []*delta.Step
	logCount    int

	// devices/nets cache the shape so Info works on demoted entries.
	devices, nets int
}

// Info describes one entry for listings and API responses.
type Info struct {
	Name     string   `json:"name"`
	Display  string   `json:"display,omitempty"`
	Devices  int      `json:"devices"`
	Nets     int      `json:"nets"`
	Globals  []string `json:"globals,omitempty"`
	Resident bool     `json:"resident"`
	Snapshot bool     `json:"snapshot"`
	Bytes    int64    `json:"bytes"`
	Version  uint64   `json:"version"`
}

// Stats is the store-level gauge set for /metrics.
type Stats struct {
	Circuits      int
	Resident      int
	ResidentBytes int64
	Evictions     int64
	Reloads       int64
	Edits         int64
	CSRRebuilds   int64
}

// Open builds a Store and, when cfg.Dir is set, creates the directory
// layout and reloads every circuit and pattern recorded in the manifest.
// A corrupt manifest or missing snapshot is a boot error: a daemon that
// silently dropped circuits would violate the durability contract.
func Open(cfg Config) (*Store, error) {
	st := &Store{
		dir:       cfg.Dir,
		maxBytes:  cfg.MaxBytes,
		globals:   append([]string(nil), cfg.Globals...),
		log:       cfg.Log,
		entries:   make(map[string]*Entry),
		lru:       list.New(),
		patterns:  make(map[string]*graph.Circuit),
		libraries: make(map[string][]string),
		nameLocks: make(map[string]*sync.Mutex),
	}
	if st.log == nil {
		st.log = obs.Discard()
	}
	if cfg.Dir != "" {
		if err := st.loadDir(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ValidName reports whether name is usable as a store key (and hence a
// snapshot filename component): 1–64 characters from [A-Za-z0-9._-], not
// starting with a dot or dash.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// estimateBytes approximates the resident footprint of a circuit plus its
// CSR view and scratch pool.  The constants cover the graph structs, name
// strings, adjacency slices, and the CSR's flat arrays; the estimate only
// needs to be proportional, since the budget it feeds is itself a knob.
func estimateBytes(c *graph.Circuit) int64 {
	return int64(c.NumDevices())*160 + int64(c.NumNets())*120 + int64(c.NumPins())*96
}

// Put installs (or replaces) the named entry, marking the store-level
// globals on the circuit, building its CSR view, and — with a data
// directory — writing its snapshot and the updated manifest before the
// entry becomes visible.  In-flight matches against a replaced entry keep
// running against the old circuit through their handles.
//
// The store takes ownership of ckt: a later ApplyEdits may edit it in
// place, so the caller must not read or modify it after the call; pass a
// clone to keep a copy.
func (st *Store) Put(name string, ckt *graph.Circuit) (Info, error) {
	return st.put(name, ckt, nil)
}

// PutSource is Put for a circuit the caller built from netlist source text
// src with netlist.ParseString and MainCircuit(ckt.Name): the snapshot is
// src itself, written verbatim as a .sp, instead of a re-serialization of
// the circuit.  Boot rebuilds a .sp with the same reader and the same
// MainCircuit name and re-marks the same globals, so a reloaded circuit
// is exactly the one served, net order included, and a hierarchical
// source stays as small as it arrived.
func (st *Store) PutSource(name string, ckt *graph.Circuit, src string) (Info, error) {
	return st.put(name, ckt, &src)
}

// put is Put and PutSource: src, when non-nil, is the snapshot text.
func (st *Store) put(name string, ckt *graph.Circuit, src *string) (Info, error) {
	if !ValidName(name) {
		return Info{}, fmt.Errorf("invalid circuit name %q (want 1-64 chars of [A-Za-z0-9._-], not starting with '.' or '-')", name)
	}
	st.markGlobals(ckt)
	e := &Entry{
		name:        name,
		display:     ckt.Name,
		ckt:         ckt,
		view:        core.NewCSR(ckt),
		bytes:       estimateBytes(ckt),
		resident:    true,
		devices:     ckt.NumDevices(),
		nets:        ckt.NumNets(),
		saved:       time.Now(),
		stamp:       nextStamp(),
		version:     1,
		snapVersion: 1,
	}
	for _, n := range ckt.Globals() {
		e.globals = append(e.globals, n.Name)
	}
	defer st.lockName(name)()
	if st.dir != "" {
		var taken []string
		st.mu.Lock()
		if old, ok := st.entries[name]; ok {
			taken = []string{old.file, old.log}
		}
		st.mu.Unlock()
		file, err := st.writeSnapshot(name, ckt, src, taken...)
		if err != nil {
			return Info{}, err
		}
		// A fresh edit log too: the first edit creates it.
		log, err := st.freshName(name, ".log", taken...)
		st.noteIO(err)
		if err != nil {
			os.Remove(st.circuitPath(file))
			return Info{}, fmt.Errorf("naming the edit log for %q: %w", name, err)
		}
		e.file, e.log = file, log
	}

	st.mu.Lock()
	if old, ok := st.entries[name]; ok {
		st.dropLocked(old)
		// A replace starts a fresh version lineage in fresh files; the old
		// snapshot and edit log go once the manifest stops naming them.
		st.supersedeLocked(old)
	}
	st.entries[name] = e
	e.elem = st.lru.PushFront(e)
	st.residentBytes += e.bytes
	st.evictLocked()
	info := st.infoLocked(e)
	st.mu.Unlock()

	if st.dir != "" {
		if err := st.writeManifest(); err != nil {
			return info, err
		}
	}
	return info, nil
}

// Acquire returns a ref-counted handle on the named entry, reloading a
// demoted entry from its snapshot first.  Callers must Release the handle
// once they have read everything they need from the circuit, including
// names in rendered results; the ref count pins the entry's resident state
// against eviction and its circuit against in-place edits.  An entry being
// edited in place is not handed out: Acquire waits for the edit, which
// holds the name lock, and looks the name up again.
func (st *Store) Acquire(name string) (*Handle, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[name]
	for ok && e.editing {
		st.mu.Unlock()
		st.lockName(name)()
		st.mu.Lock()
		e, ok = st.entries[name]
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if !e.resident {
		if err := st.reloadLocked(e); err != nil {
			return nil, fmt.Errorf("reloading circuit %q from snapshot: %w", name, err)
		}
	}
	e.refs++
	st.lru.MoveToFront(e.elem)
	return &Handle{st: st, e: e}, nil
}

// Delete removes the named entry, and its snapshot and edit log once the
// manifest without it is durable.  Handles already acquired stay valid;
// the entry's memory is reclaimed when they release.
func (st *Store) Delete(name string) error {
	defer st.lockName(name)()
	st.mu.Lock()
	e, ok := st.entries[name]
	if ok {
		delete(st.entries, name)
		st.dropLocked(e)
		st.supersedeLocked(e)
	}
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if st.dir != "" {
		return st.writeManifest()
	}
	return nil
}

// Get returns the Info for one entry.
func (st *Store) Get(name string) (Info, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[name]
	if !ok {
		return Info{}, false
	}
	return st.infoLocked(e), true
}

// List returns every entry's Info, sorted by name.
func (st *Store) List() []Info {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Info, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, st.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of named entries.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// Stats returns the gauge snapshot for /metrics.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Circuits:      len(st.entries),
		ResidentBytes: st.residentBytes,
		Evictions:     st.evictions,
		Reloads:       st.reloads,
		Edits:         st.edits,
		CSRRebuilds:   st.csrRebuilds,
	}
	for _, e := range st.entries {
		if e.resident {
			s.Resident++
		}
	}
	return s
}

// Close flushes dirty entries and the manifest.  Clean entries' snapshots
// were written at Put or compaction time, so Flush skips them (see
// edits.go); only circuits with unfolded edit-log records re-serialize.
func (st *Store) Close() error {
	return st.Flush()
}

// infoLocked builds an Info under st.mu.
func (st *Store) infoLocked(e *Entry) Info {
	return Info{
		Name:     e.name,
		Display:  e.display,
		Devices:  e.devices,
		Nets:     e.nets,
		Globals:  append([]string(nil), e.globals...),
		Resident: e.resident,
		Snapshot: e.file != "",
		Bytes:    e.bytes,
		Version:  e.version,
	}
}

// dropLocked detaches an entry from the LRU accounting (replacement and
// deletion paths).
func (st *Store) dropLocked(e *Entry) {
	if e.elem != nil {
		st.lru.Remove(e.elem)
		e.elem = nil
	}
	if e.resident {
		st.residentBytes -= e.bytes
	}
}

// evictLocked demotes least-recently-used idle snapshotted entries until
// the resident total fits the budget.  Entries that are referenced, not
// resident, or have no snapshot to reload from are skipped — a memory-only
// entry is never silently dropped.
func (st *Store) evictLocked() {
	if st.maxBytes <= 0 {
		return
	}
	for el := st.lru.Back(); el != nil && st.residentBytes > st.maxBytes; {
		e := el.Value.(*Entry)
		el = el.Prev()
		if e.refs > 0 || !e.resident || e.file == "" || e.version != e.snapVersion {
			// The last clause keeps edited-but-uncompacted entries resident:
			// their snapshot alone cannot reproduce the current circuit.
			continue
		}
		e.ckt = nil
		e.view = nil
		e.resident = false
		st.residentBytes -= e.bytes
		st.evictions++
		st.log.Info("evicted circuit under memory budget", "circuit", e.name, "bytes_est", e.bytes, "budget_bytes", st.maxBytes)
	}
}

// stamps counts the installs of the process across stores, so that no two
// entries of any stores share a stamp and state kept by stamp cannot be
// mistaken for another store's.
var stamps atomic.Uint64

// nextStamp returns the stamp of a new install (see Entry.stamp).
func nextStamp() uint64 { return stamps.Add(1) }

// markGlobals marks the store-level globals on ckt; names it lacks are
// skipped.  Every stored circuit carries them: Put, each edit batch (whose
// new nets may take such a name) and boot all mark them.
func (st *Store) markGlobals(ckt *graph.Circuit) {
	for _, g := range st.globals {
		ckt.MarkGlobal(g)
	}
}

// lockName serializes the operations that replace, delete or edit the
// named circuit (Put, Delete, ApplyEdits and compaction), so each sees the
// entry and files the previous one left; different circuits proceed in
// parallel.  It returns the unlock function.
func (st *Store) lockName(name string) (unlock func()) {
	st.mu.Lock()
	l := st.nameLocks[name]
	if l == nil {
		l = new(sync.Mutex)
		st.nameLocks[name] = l
	}
	st.mu.Unlock()
	l.Lock()
	return l.Unlock
}

// release drops one handle reference.
func (st *Store) release(e *Entry) {
	st.mu.Lock()
	e.refs--
	st.evictLocked()
	st.mu.Unlock()
}

// Handle is a ref-counted lease on an entry.  It exposes the shared
// circuit state a match needs.
type Handle struct {
	st       *Store
	e        *Entry
	released bool
}

// Name returns the store key.
func (h *Handle) Name() string { return h.e.name }

// Circuit returns the shared circuit.  Callers only read it: it does not
// change while the handle is held, and any number of handles read it
// concurrently.
func (h *Handle) Circuit() *graph.Circuit { return h.e.ckt }

// CSR returns the entry's prebuilt flat view, shareable across matchers:
// it carries the Phase II scratch pool and the cached initial labeling
// they share.
func (h *Handle) CSR() *core.CSR { return h.e.view }

// Version returns the edit version of the entry this handle leases.  It is
// fixed for the handle's lifetime: edits install fresh entries and rewrite
// a circuit in place only while no other handle leases it, so a concurrent
// PATCH never changes what an acquired handle sees.
func (h *Handle) Version() uint64 { return h.e.version }

// Stamp returns the install stamp of the leased entry: the same for every
// version one Put (or boot) and the edits after it produce, and different
// from every other install's, a replacement under the same name included.
// State derived from a circuit and kept past its handle (the daemon's
// result cache) records the stamp beside the version, since a replacement
// restarts the version at 1.
func (h *Handle) Stamp() uint64 { return h.e.stamp }

// Release returns the lease.  Releasing twice is a no-op.
func (h *Handle) Release() {
	if h.released {
		return
	}
	h.released = true
	h.st.release(h.e)
}
