package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
)

// Circuit edits.  Each ApplyEdits applies one batch of delta ops to a clone
// of the entry's circuit, patches the CSR view incrementally, and installs
// the result as a fresh entry with the next version number — in-flight
// matches keep the old entry alive through their handles, so a PATCH never
// disturbs a running match (snapshot isolation by construction).
//
// Durability mirrors a write-ahead log: the batch is appended to
// <dir>/circuits/<name>.log (fsynced JSONL, one record per version) before
// the new entry becomes visible, and boot replays every log record past the
// snapshot's version.  Snapshot compaction folds the log back into the
// snapshot once it grows past compactEvery records, and Flush compacts
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
	st.editMu.Lock()
	defer st.editMu.Unlock()

	h, err := st.Acquire(name)
	if err != nil {
		return Info{}, err
	}
	defer h.Release()
	old := h.e

	h.RLock()
	clone := old.ckt.Clone()
	h.RUnlock()

	version := old.version + 1
	step, err := delta.Apply(clone, version, ops)
	if err != nil {
		return Info{}, err
	}
	view, rebuilt := csr.Patch(old.view, clone,
		csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New},
		step.DirtyDevs, step.DirtyNets)

	e := &Entry{
		name:        old.name,
		display:     old.display,
		file:        old.file,
		saved:       old.saved,
		ckt:         clone,
		view:        view,
		scratch:     new(core.ScratchPool),
		bytes:       estimateBytes(clone),
		resident:    true,
		devices:     clone.NumDevices(),
		nets:        clone.NumNets(),
		version:     version,
		snapVersion: old.snapVersion,
		logCount:    old.logCount + 1,
	}
	for _, n := range clone.Globals() {
		e.globals = append(e.globals, n.Name)
	}
	e.steps = append(append([]*delta.Step(nil), old.steps...), step)
	if len(e.steps) > stepsKeep {
		e.steps = e.steps[len(e.steps)-stepsKeep:]
	}

	// Log before install: the record is the authority boot replays, so an
	// edit must never be visible without it.
	if st.dir != "" && e.file != "" {
		if err := st.appendEditLog(name, version, ops); err != nil {
			return Info{}, err
		}
	}

	st.mu.Lock()
	if cur, ok := st.entries[name]; !ok || cur != old {
		// Replaced or deleted while we edited the clone; the log record we
		// appended belongs to a lineage that no longer exists, and Put/
		// Delete already removed the log file.
		st.mu.Unlock()
		return Info{}, fmt.Errorf("circuit %q was replaced during the edit; retry", name)
	} else {
		st.dropLocked(cur)
	}
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

	if st.dir != "" && e.file != "" {
		if e.logCount >= compactEvery && st.compactEntry(e) == nil {
			return info, nil // compactEntry rewrote the manifest
		}
		if err := st.writeManifest(); err != nil {
			return info, err
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
	st.editMu.Lock()
	defer st.editMu.Unlock()
	st.mu.Lock()
	var dirty []*Entry
	for _, e := range st.entries {
		if e.file != "" && e.resident && e.version != e.snapVersion {
			dirty = append(dirty, e)
		}
	}
	st.mu.Unlock()
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].name < dirty[j].name })
	var firstErr error
	for _, e := range dirty {
		if err := st.compactEntry(e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := st.writeManifest(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// compactEntry folds an entry's edit log into a fresh snapshot and
// rewrites the manifest.  The manifest names the new snapshot before the
// log goes, and a snapshot left in the other format (an edit can make a
// .sp circuit need JSON) goes last, so a crash in between leaves a
// manifest whose snapshot plus log still reproduce the entry.  The entry
// stays valid on failure (the log still holds the tail); the error feeds
// Healthy via the writers.
func (st *Store) compactEntry(e *Entry) error {
	e.markMu.RLock()
	file, err := st.writeSnapshot(e.name, e.ckt)
	e.markMu.RUnlock()
	if err != nil {
		st.log.Warn("circuit compaction failed", "circuit", e.name, "err", err)
		return err
	}
	st.mu.Lock()
	stale := e.file
	e.file = file
	e.snapVersion = e.version
	e.logCount = 0
	e.saved = time.Now()
	st.mu.Unlock()
	if err := st.writeManifest(); err != nil {
		st.log.Warn("circuit compaction failed", "circuit", e.name, "err", err)
		return err
	}
	if err := os.Remove(st.editLogPath(e.name)); err != nil && !os.IsNotExist(err) {
		st.log.Warn("removing folded edit log failed", "circuit", e.name, "err", err)
		return err
	}
	if stale != file {
		st.removeSnapshot(stale)
	}
	st.log.Info("compacted circuit", "circuit", e.name, "version", e.version)
	return nil
}

// editLogRec is one JSONL record of a circuit's edit log.
type editLogRec struct {
	Version uint64     `json:"version"`
	Ops     []delta.Op `json:"ops"`
}

func (st *Store) editLogPath(name string) string {
	return filepath.Join(st.dir, circuitsDir, name+".log")
}

// appendEditLog durably appends one edit record.
func (st *Store) appendEditLog(name string, version uint64, ops []delta.Op) error {
	err := faults.Fire("store.append-log")
	if err == nil {
		blob, merr := json.Marshal(editLogRec{Version: version, Ops: ops})
		if merr != nil {
			err = merr
		} else {
			var f *os.File
			f, err = os.OpenFile(st.editLogPath(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
		return fmt.Errorf("appending edit log for %q: %w", name, err)
	}
	return nil
}

// removeEditLog discards a circuit's edit log (replacement and deletion).
func (st *Store) removeEditLog(name string) {
	if st.dir == "" {
		return
	}
	os.Remove(st.editLogPath(name))
}

// replayEditLog applies the named circuit's edit log records past
// snapVersion to a freshly parsed snapshot, returning the resulting
// version, the replayed steps, and the record count.  A trailing line that
// fails to decode is tolerated (a crash mid-append tore it; the write was
// never acknowledged); a version gap or a record that fails to apply is
// corruption and a boot error.
func (st *Store) replayEditLog(name string, ckt *graph.Circuit, snapVersion uint64) (version uint64, steps []*delta.Step, logCount int, err error) {
	version = snapVersion
	raw, err := os.ReadFile(st.editLogPath(name))
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
