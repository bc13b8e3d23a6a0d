package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
)

// Circuit edits.  Each ApplyEdits applies one batch of delta ops to the
// entry's circuit, patches the CSR view incrementally, and installs the
// result as a fresh entry with the next version number.  When the editor's
// own handle is the only one on the entry, the batch edits the circuit in
// place and the new entry takes it over: the entry is marked as being
// edited in the same critical section that checks the count, so no reader
// acquires it until the edit has installed or rolled back (Acquire waits
// on the name lock), and a failed or interrupted edit is undone exactly
// (delta.ApplyUndo).  When a match, sweep or job holds the entry, the
// batch edits a clone instead, and the readers keep the old entry and its
// circuit through their handles: a PATCH never disturbs a running match
// (snapshot isolation).  Waiting for the readers instead of cloning would
// let one long match stall every PATCH and, behind it, every new reader.
//
// Durability mirrors a write-ahead log: the batch is appended to the
// entry's edit log, <dir>/circuits/<name>.log or a fresh <name>~N.log
// (fsynced JSONL, one record per version), before the new entry becomes
// visible, and boot replays every log record past the snapshot's version.
// Snapshot compaction folds the log into a fresh snapshot and deletes the
// folded log once it grows past compactEvery records, and Flush compacts
// every dirty entry at shutdown.  A torn trailing log line (crash
// mid-append) is tolerated: the write was never acknowledged.

const (
	// compactEvery bounds the edit log: once a circuit accumulates this
	// many log records, the next edit rewrites the snapshot and empties the
	// log, so boot replay cost stays bounded.
	compactEvery = 64

	// stepsKeep bounds the in-memory Steps retained per entry for
	// StepsSince; incremental match states older than this many versions
	// behind fall back to a full run.
	stepsKeep = 64
)

func init() {
	faults.Register("store.append-log", "edit-log append during ApplyEdits (error fails the edit and marks the store unhealthy)")
}

// ApplyEdits applies one batch of edit ops to the named circuit, bumping
// its version.  A validation error leaves the stored circuit untouched.
func (st *Store) ApplyEdits(name string, ops []delta.Op) (Info, error) {
	defer st.lockName(name)()

	h, err := st.Acquire(name)
	if err != nil {
		return Info{}, err
	}
	defer h.Release()
	old := h.e

	st.mu.Lock()
	inPlace := old.refs == 1
	old.editing = inPlace
	st.mu.Unlock()
	ckt := old.ckt
	if !inPlace {
		h.RLock()
		ckt = old.ckt.Clone()
		h.RUnlock()
	}
	installed := false
	var undo func()
	defer func() {
		// An edit that fails or panics before it installs leaves the entry
		// as it was: rolled back when edited in place, and readable again.
		if installed || !inPlace {
			return
		}
		if undo != nil {
			undo()
		}
		st.mu.Lock()
		old.editing = false
		st.mu.Unlock()
	}()

	version := old.version + 1
	step, undo, err := delta.ApplyUndo(ckt, version, ops)
	if err != nil {
		return Info{}, err
	}
	view, rebuilt := csr.Patch(old.view, ckt,
		csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New},
		step.DirtyDevs, step.DirtyNets)

	e := &Entry{
		name:        old.name,
		display:     old.display,
		file:        old.file,
		log:         old.log,
		saved:       old.saved,
		ckt:         ckt,
		view:        view,
		scratch:     new(core.ScratchPool),
		bytes:       estimateBytes(ckt),
		resident:    true,
		devices:     ckt.NumDevices(),
		nets:        ckt.NumNets(),
		version:     version,
		snapVersion: old.snapVersion,
		logCount:    old.logCount + 1,
	}
	for _, n := range ckt.Globals() {
		e.globals = append(e.globals, n.Name)
	}
	e.steps = append(append([]*delta.Step(nil), old.steps...), step)
	if len(e.steps) > stepsKeep {
		e.steps = e.steps[len(e.steps)-stepsKeep:]
	}

	// Log before install: the record is the authority boot replays, so an
	// edit must never be visible without it.
	if st.dir != "" && e.file != "" {
		if err := st.appendEditLog(e.log, version, ops); err != nil {
			return Info{}, err
		}
	}

	// The name lock keeps Put and Delete out, so old is still the entry
	// the name maps to.
	st.mu.Lock()
	st.dropLocked(old)
	old.editing = false
	installed = true
	st.entries[name] = e
	e.elem = st.lru.PushFront(e)
	st.residentBytes += e.bytes
	st.edits++
	if rebuilt {
		st.csrRebuilds++
	}
	st.evictLocked()
	info := st.infoLocked(e)
	st.mu.Unlock()

	// A plain edit changes no file name and boot takes the version from
	// the log, so the manifest needs a rewrite only when the edit compacts
	// or when the last manifest write failed (a failed compaction then
	// becomes durable here).
	if st.dir != "" && e.file != "" {
		if e.logCount >= compactEvery && st.compactEntry(e) == nil {
			return info, nil // compactEntry rewrote the manifest
		}
		if st.manifestStale.Load() {
			if err := st.writeManifest(); err != nil {
				return info, err
			}
		}
	}
	return info, nil
}

// StepsSince returns the Steps leading from the given version to the
// circuit's current version (empty when already current), plus the current
// version.  ok=false when the circuit is unknown, the version is ahead of
// the store, or the steps have aged out of the retained window — callers
// then fall back to a full re-match.
func (st *Store) StepsSince(name string, since uint64) (steps []*delta.Step, current uint64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, found := st.entries[name]
	if !found {
		return nil, 0, false
	}
	if since == e.version {
		return nil, e.version, true
	}
	if since > e.version {
		return nil, e.version, false
	}
	need := e.version - since
	if uint64(len(e.steps)) < need {
		return nil, e.version, false
	}
	tail := e.steps[uint64(len(e.steps))-need:]
	if tail[0].Version != since+1 {
		return nil, e.version, false
	}
	return append([]*delta.Step(nil), tail...), e.version, true
}

// VersionStep summarizes one retained edit step for the versions listing.
type VersionStep struct {
	Version uint64 `json:"version"`
	Ops     int    `json:"ops"`
}

// VersionLog describes a circuit's edit history for API responses.
type VersionLog struct {
	Name        string        `json:"name"`
	Version     uint64        `json:"version"`
	SnapVersion uint64        `json:"snap_version"`
	Steps       []VersionStep `json:"steps,omitempty"`
}

// Versions returns the named circuit's version state and retained steps.
func (st *Store) Versions(name string) (VersionLog, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[name]
	if !ok {
		return VersionLog{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	vl := VersionLog{Name: name, Version: e.version, SnapVersion: e.snapVersion}
	for _, s := range e.steps {
		vl.Steps = append(vl.Steps, VersionStep{Version: s.Version, Ops: len(s.Ops)})
	}
	return vl, nil
}

// Flush writes snapshots for entries whose version is ahead of the on-disk
// snapshot, folds their edit logs, and rewrites the manifest.  Entries
// whose snapshot already covers the current version are skipped: a
// snapshot write is a full serialization plus fsync, so re-writing clean
// circuits would turn every manifest flush into O(store) disk traffic
// (TestFlushSkipsCleanEntries pins this).
func (st *Store) Flush() error {
	if st.dir == "" {
		return nil
	}
	st.mu.Lock()
	var dirty []string
	for name, e := range st.entries {
		if e.file != "" && e.resident && e.version != e.snapVersion {
			dirty = append(dirty, name)
		}
	}
	st.mu.Unlock()
	sort.Strings(dirty)
	var firstErr error
	for _, name := range dirty {
		unlock := st.lockName(name)
		st.mu.Lock()
		e := st.entries[name] // the entry may have changed before the lock
		ok := e != nil && e.file != "" && e.resident && e.version != e.snapVersion
		st.mu.Unlock()
		if ok {
			if err := st.compactEntry(e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		unlock()
	}
	if err := st.writeManifest(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// compactEntry folds an entry's edit log into a snapshot and rewrites the
// manifest; the caller holds the circuit's name lock.  The snapshot takes a
// fresh name, and the old one is removed only once the manifest naming the
// new one is durable.  The log keeps its name and is deleted then too,
// since every record it holds is folded into the snapshot the manifest
// names; the next edit recreates it.  A crash at any point thus leaves a
// manifest whose snapshot plus log reproduce the entry.  On failure the error feeds Healthy via the writers,
// and the next manifest write (the next edit's) makes the compaction
// durable.
func (st *Store) compactEntry(e *Entry) error {
	e.markMu.RLock()
	file, err := st.writeSnapshot(e.name, e.ckt, e.file, e.log)
	e.markMu.RUnlock()
	if err != nil {
		st.log.Warn("circuit compaction failed", "circuit", e.name, "err", err)
		return err
	}
	st.mu.Lock()
	st.superseded = append(st.superseded, e.file)
	e.file = file
	e.snapVersion = e.version
	e.logCount = 0
	e.saved = time.Now()
	st.mu.Unlock()
	if err := st.writeManifest(); err != nil {
		st.log.Warn("circuit compaction failed", "circuit", e.name, "err", err)
		return err
	}
	if err := os.Remove(st.circuitPath(e.log)); err != nil && !os.IsNotExist(err) {
		st.log.Warn("removing folded edit log failed", "circuit", e.name, "err", err)
		return err
	}
	st.log.Info("compacted circuit", "circuit", e.name, "version", e.version)
	return nil
}

// editLogRec is one JSONL record of a circuit's edit log.
type editLogRec struct {
	Version uint64     `json:"version"`
	Ops     []delta.Op `json:"ops"`
}

// appendEditLog durably appends one edit record to the named log file.
func (st *Store) appendEditLog(log string, version uint64, ops []delta.Op) error {
	err := faults.Fire("store.append-log")
	if err == nil {
		blob, merr := json.Marshal(editLogRec{Version: version, Ops: ops})
		if merr != nil {
			err = merr
		} else {
			var f *os.File
			f, err = os.OpenFile(st.circuitPath(log), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err == nil {
				_, err = f.Write(append(blob, '\n'))
				if serr := f.Sync(); err == nil {
					err = serr
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
	}
	st.noteIO(err)
	if err != nil {
		return fmt.Errorf("appending edit log %s: %w", log, err)
	}
	return nil
}

// replayEditLog applies the named circuit's edit log (file log) records
// past snapVersion to a freshly parsed snapshot, returning the resulting
// version, the replayed steps, and the record count.  A trailing line that
// fails to decode is tolerated (a crash mid-append tore it; the write was
// never acknowledged); a version gap or a record that fails to apply is
// corruption and a boot error.
func (st *Store) replayEditLog(name, log string, ckt *graph.Circuit, snapVersion uint64) (version uint64, steps []*delta.Step, logCount int, err error) {
	version = snapVersion
	raw, err := os.ReadFile(st.circuitPath(log))
	if os.IsNotExist(err) {
		return version, nil, 0, nil
	}
	if err != nil {
		return 0, nil, 0, err
	}
	lines := bytes.Split(raw, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec editLogRec
		if derr := json.Unmarshal(line, &rec); derr != nil {
			rest := bytes.TrimSpace(bytes.Join(lines[i+1:], []byte("\n")))
			if len(rest) == 0 {
				st.log.Warn("edit log ends in a torn record; recovered", "circuit", name, "through_version", version)
				break
			}
			return 0, nil, 0, fmt.Errorf("edit log record %d is corrupt: %v", i+1, derr)
		}
		logCount++
		if rec.Version <= snapVersion {
			continue // already folded into the snapshot
		}
		if rec.Version != version+1 {
			return 0, nil, 0, fmt.Errorf("edit log gap: record %d has version %d, want %d", i+1, rec.Version, version+1)
		}
		step, aerr := delta.Apply(ckt, rec.Version, rec.Ops)
		if aerr != nil {
			return 0, nil, 0, fmt.Errorf("replaying edit log version %d: %w", rec.Version, aerr)
		}
		steps = append(steps, step)
		version = rec.Version
	}
	if len(steps) > stepsKeep {
		steps = steps[len(steps)-stepsKeep:]
	}
	return version, steps, logCount, nil
}
