package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
)

func init() {
	faults.Register("store.write-snapshot", "circuit snapshot write during Put (error fails the upload and marks the store unhealthy)")
	faults.Register("store.write-manifest", "manifest index rewrite after any durable mutation")
	faults.Register("store.remove-superseded", "removal of the snapshots and edit logs a just-written manifest no longer names (error leaves them for the next rewrite; a crash leaves them for boot)")
	faults.Register("store.reload", "demoted-circuit reload from snapshot during Acquire (delay holds the store lock; error flips /readyz)")
}

// Data-directory layout.  The manifest is the index; a circuit snapshot
// is a plain netlist, so a user can inspect (or seed) the data directory
// with ordinary tools, when the netlist reader gives back exactly the
// stored circuit: an upload's own source text, or the netlist writer's
// output when netlist.RoundTrips says so.  Every other circuit —
// gate-level results of extraction, compacted edits of flattened
// hierarchies whose device names lack their element letter, edited
// circuits with devices the reader would re-class or nets the reader would
// number in another order — snapshots in the graph JSON interchange format
// instead; the file extension selects the parser
// on reload.  The manifest names each circuit's snapshot and edit log;
// both are created under fresh names (see freshName), so no write ever
// lands on a file the manifest names.
const (
	manifestName = "manifest.json"
	circuitsDir  = "circuits"
	patternsDir  = "patterns"
)

// manifest is the on-disk index, always written whole via an atomic
// rename so readers never observe a torn file.
type manifest struct {
	Version   int          `json:"version"`
	Circuits  []circuitRec `json:"circuits"`
	Patterns  []patternRec `json:"patterns,omitempty"`
	Libraries []libraryRec `json:"libraries,omitempty"`
}

type circuitRec struct {
	Name      string   `json:"name"`
	Display   string   `json:"display,omitempty"`
	File      string   `json:"file"`
	Log       string   `json:"log,omitempty"` // edit log; "" reads as <name>.log
	Globals   []string `json:"globals,omitempty"`
	Devices   int      `json:"devices"`
	Nets      int      `json:"nets"`
	SavedUnix int64    `json:"saved_unix"`

	// Version is the circuit's edit version at manifest-write time;
	// SnapVersion is the version the snapshot file covers.  Boot replays
	// the edit log past SnapVersion, so the log (not Version) is the
	// authority for the current version — a crash between log append and
	// manifest rewrite leaves Version stale by design.  Zero values (a
	// pre-edit-log manifest) read as version 1.
	Version     uint64 `json:"edit_version,omitempty"`
	SnapVersion uint64 `json:"snap_version,omitempty"`
}

type patternRec struct {
	Name string `json:"name"`
	File string `json:"file"`
}

// libraryRec is a named ordered list of pattern names: the unit a library
// sweep matches.  Libraries are small (names only), so they live inside
// the manifest itself rather than as separate snapshot files.
type libraryRec struct {
	Name     string   `json:"name"`
	Patterns []string `json:"patterns"`
}

// writeAtomic writes data to path via a temp file in the same directory
// plus rename, so a crash mid-write never leaves a torn file behind.  The
// writer is buffered, so callers may write in small pieces; the buffer is
// flushed before the fsync.
func writeAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadDir creates the directory layout and replays the manifest: every
// recorded circuit is reloaded from its snapshot (globals re-marked, CSR
// rebuilt) and every pattern template is recompiled.  Errors here are boot
// errors by design — see Open.
func (st *Store) loadDir() error {
	for _, d := range []string{st.dir, filepath.Join(st.dir, circuitsDir), filepath.Join(st.dir, patternsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	path := filepath.Join(st.dir, manifestName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil // fresh data directory
	}
	if err != nil {
		return fmt.Errorf("reading store manifest %s: %w", path, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("store manifest %s is corrupt (%v); move it aside or restore a backup to boot", path, err)
	}
	if m.Version != 1 {
		return fmt.Errorf("store manifest %s has unsupported version %d (want 1)", path, m.Version)
	}
	named := make(map[string]bool, 2*len(m.Circuits))
	for _, rec := range m.Circuits {
		if rec.Log == "" {
			rec.Log = rec.Name + ".log" // a manifest from before logs were named
		}
		e, err := st.loadCircuitRec(rec)
		if err != nil {
			return fmt.Errorf("reloading circuit %q from %s: %w", rec.Name, rec.File, err)
		}
		st.entries[rec.Name] = e
		e.elem = st.lru.PushBack(e) // boot order is not usage order; all equally cold
		st.residentBytes += e.bytes
		named[rec.File], named[rec.Log] = true, true
	}
	st.removeUnnamed(named)
	for _, rec := range m.Patterns {
		tpl, err := st.loadPatternRec(rec)
		if err != nil {
			return fmt.Errorf("reloading pattern %q from %s: %w", rec.Name, rec.File, err)
		}
		st.patterns[rec.Name] = tpl
	}
	for _, rec := range m.Libraries {
		st.libraries[rec.Name] = append([]string(nil), rec.Patterns...)
	}
	if len(m.Circuits)+len(m.Patterns)+len(m.Libraries) > 0 {
		st.log.Info("reloaded store", "circuits", len(m.Circuits),
			"patterns", len(m.Patterns), "libraries", len(m.Libraries), "dir", st.dir)
	}
	st.mu.Lock()
	st.evictLocked()
	st.mu.Unlock()
	return nil
}

// loadCircuitRec parses one snapshot back into a resident entry, replaying
// any edit-log records past the snapshot's version (see edits.go).
func (st *Store) loadCircuitRec(rec circuitRec) (*Entry, error) {
	ckt, err := st.parseSnapshot(rec.File, rec.Display, rec.Globals)
	if err != nil {
		return nil, err
	}
	snapVersion := rec.SnapVersion
	if snapVersion == 0 {
		snapVersion = 1 // pre-edit-log manifest
	}
	version, steps, logCount, err := st.replayEditLog(rec.Name, rec.Log, ckt, snapVersion)
	if err != nil {
		return nil, fmt.Errorf("edit log %s: %w", rec.Log, err)
	}
	if version > snapVersion {
		st.log.Info("replayed edit versions", "circuit", rec.Name,
			"versions", version-snapVersion, "from", snapVersion, "to", version)
	}
	e := &Entry{
		name:        rec.Name,
		display:     ckt.Name,
		file:        rec.File,
		log:         rec.Log,
		ckt:         ckt,
		view:        core.NewCSR(ckt),
		bytes:       estimateBytes(ckt),
		resident:    true,
		devices:     ckt.NumDevices(),
		nets:        ckt.NumNets(),
		saved:       time.Unix(rec.SavedUnix, 0),
		stamp:       nextStamp(),
		version:     version,
		snapVersion: snapVersion,
		steps:       steps,
		logCount:    logCount,
	}
	for _, n := range ckt.Globals() {
		e.globals = append(e.globals, n.Name)
	}
	return e, nil
}

// parseSnapshot reads a circuit snapshot (netlist or, for gate-level
// circuits, graph JSON — dispatched on the extension) and re-marks its
// globals: the snapshot's own marks, the manifest record's globals
// (covering marks made after the snapshot was written), and the
// store-level globals.
func (st *Store) parseSnapshot(file, display string, globals []string) (*graph.Circuit, error) {
	path := st.circuitPath(file)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ckt *graph.Circuit
	if strings.HasSuffix(file, ".json") {
		ckt, err = graph.DecodeJSON(f)
		if err != nil {
			return nil, err
		}
		if display != "" {
			ckt.Name = display
		}
	} else {
		nf, err := netlist.Parse(f, path)
		if err != nil {
			return nil, err
		}
		name := display
		if name == "" {
			name = file
		}
		ckt, err = nf.MainCircuit(name)
		if err != nil {
			return nil, err
		}
	}
	for _, g := range globals {
		ckt.MarkGlobal(g)
	}
	st.markGlobals(ckt)
	return ckt, nil
}

// loadPatternRec recompiles one persisted pattern template.
func (st *Store) loadPatternRec(rec patternRec) (*graph.Circuit, error) {
	path := filepath.Join(st.dir, patternsDir, rec.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nf, err := netlist.Parse(f, path)
	if err != nil {
		return nil, err
	}
	return nf.Pattern(rec.Name)
}

// writeSnapshot writes one circuit snapshot under a fresh name (see
// freshName) and returns the filename: the source text ckt was parsed
// from when src is non-nil (see PutSource), else a .sp netlist when the
// netlist round-trips exactly and graph JSON otherwise.
func (st *Store) writeSnapshot(name string, ckt *graph.Circuit, src *string, taken ...string) (string, error) {
	ext := ".sp"
	write := func(w io.Writer) error { return netlist.WriteCircuit(w, ckt) }
	switch {
	case src != nil:
		write = func(w io.Writer) error {
			_, err := io.WriteString(w, *src)
			return err
		}
	case !netlist.RoundTrips(ckt):
		ext = ".json"
		write = func(w io.Writer) error { return graph.EncodeJSON(w, ckt) }
	}
	var file string
	err := faults.Fire("store.write-snapshot")
	if err == nil {
		file, err = st.freshName(name, ext, taken...)
	}
	if err == nil {
		err = writeAtomic(st.circuitPath(file), write)
	}
	st.noteIO(err)
	if err != nil {
		return "", fmt.Errorf("writing circuit snapshot for %q: %w", name, err)
	}
	return file, nil
}

// freshName returns the first name among <name><ext>, <name>~1<ext>,
// <name>~2<ext>, ... that no file has, that the circuit's current entry
// does not use (taken: its snapshot and edit log, which may not exist
// yet), and that is not a superseded file awaiting removal, which the
// durable manifest may still name.  Only operations holding the circuit's
// name lock create its files, and '~' is not a store-name character, so
// the name stays free until the caller creates it.
func (st *Store) freshName(name, ext string, taken ...string) (string, error) {
	for i := 0; ; i++ {
		file := name + ext
		if i > 0 {
			file = fmt.Sprintf("%s~%d%s", name, i, ext)
		}
		st.mu.Lock()
		busy := slices.Contains(taken, file) || slices.Contains(st.superseded, file)
		st.mu.Unlock()
		if busy {
			continue
		}
		_, err := os.Lstat(st.circuitPath(file))
		if os.IsNotExist(err) {
			return file, nil
		}
		if err != nil {
			return "", err
		}
	}
}

func (st *Store) circuitPath(file string) string {
	return filepath.Join(st.dir, circuitsDir, file)
}

// supersedeLocked queues an entry's snapshot and edit log for removal once
// the manifest no longer names them; called with st.mu held when the
// entry stops being the one its name maps to.
func (st *Store) supersedeLocked(e *Entry) {
	if e.file != "" {
		st.superseded = append(st.superseded, e.file, e.log)
	}
}

// removeUnnamed deletes, at boot, the snapshots, edit logs and temp files
// under circuits/ that the manifest does not name: leftovers of an
// operation a crash interrupted before or after its manifest write.
func (st *Store) removeUnnamed(named map[string]bool) {
	des, err := os.ReadDir(filepath.Join(st.dir, circuitsDir))
	if err != nil {
		return
	}
	for _, de := range des {
		n := de.Name()
		ours := strings.HasPrefix(n, ".tmp-") || strings.HasSuffix(n, ".sp") ||
			strings.HasSuffix(n, ".json") || strings.HasSuffix(n, ".log")
		if ours && !named[n] && !de.IsDir() {
			os.Remove(st.circuitPath(n))
		}
	}
}

// writeManifest rewrites the index from the current table, then removes
// the superseded files it no longer names.
func (st *Store) writeManifest() error {
	st.manifestMu.Lock()
	defer st.manifestMu.Unlock()
	st.mu.Lock()
	m := manifest{Version: 1}
	superseded := append([]string(nil), st.superseded...)
	for _, e := range st.entries {
		if e.file == "" {
			continue
		}
		m.Circuits = append(m.Circuits, circuitRec{
			Name:        e.name,
			Display:     e.display,
			File:        e.file,
			Log:         e.log,
			Globals:     append([]string(nil), e.globals...),
			Devices:     e.devices,
			Nets:        e.nets,
			SavedUnix:   e.saved.Unix(),
			Version:     e.version,
			SnapVersion: e.snapVersion,
		})
	}
	for name := range st.patterns {
		m.Patterns = append(m.Patterns, patternRec{Name: name, File: patternFile(name)})
	}
	for name, pats := range st.libraries {
		m.Libraries = append(m.Libraries, libraryRec{Name: name, Patterns: append([]string(nil), pats...)})
	}
	st.mu.Unlock()
	sort.Slice(m.Circuits, func(i, j int) bool { return m.Circuits[i].Name < m.Circuits[j].Name })
	sort.Slice(m.Patterns, func(i, j int) bool { return m.Patterns[i].Name < m.Patterns[j].Name })
	sort.Slice(m.Libraries, func(i, j int) bool { return m.Libraries[i].Name < m.Libraries[j].Name })

	path := filepath.Join(st.dir, manifestName)
	err := faults.Fire("store.write-manifest")
	if err == nil {
		err = writeAtomic(path, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&m)
		})
	}
	st.noteIO(err)
	st.manifestStale.Store(err != nil)
	if err == nil && len(superseded) > 0 {
		st.removeSuperseded(&m, superseded)
	}
	return err
}

// removeSuperseded deletes the superseded files the durable manifest m does
// not name and drops them from the queue; a file m still names (a table
// read before its entry was replaced) waits for a later rewrite.
func (st *Store) removeSuperseded(m *manifest, files []string) {
	if err := faults.Fire("store.remove-superseded"); err != nil {
		st.log.Warn("removing superseded snapshots failed", "err", err)
		return
	}
	named := make(map[string]bool, 2*len(m.Circuits))
	for _, rec := range m.Circuits {
		named[rec.File], named[rec.Log] = true, true
	}
	done := make(map[string]bool, len(files))
	for _, f := range files {
		if !named[f] {
			if err := os.Remove(st.circuitPath(f)); err != nil && !os.IsNotExist(err) {
				st.log.Warn("removing superseded file failed", "file", f, "err", err)
				continue
			}
			done[f] = true
		}
	}
	st.mu.Lock()
	keep := st.superseded[:0]
	for _, f := range st.superseded {
		if !done[f] {
			keep = append(keep, f)
		}
	}
	st.superseded = keep
	st.mu.Unlock()
}

// reloadLocked re-parses a demoted entry's snapshot and rebuilds its CSR
// view; called with st.mu held, from Acquire.  The outcome feeds Healthy:
// a store that cannot reload its own snapshots must stop reporting ready.
func (st *Store) reloadLocked(e *Entry) error {
	err := faults.Fire("store.reload")
	if err == nil {
		var ckt *graph.Circuit
		ckt, err = st.parseSnapshot(e.file, e.display, e.globals)
		if err == nil {
			st.adoptReloaded(e, ckt)
		}
	}
	st.noteIO(err)
	return err
}

// adoptReloaded installs a freshly parsed snapshot on a demoted entry.
func (st *Store) adoptReloaded(e *Entry, ckt *graph.Circuit) {
	e.ckt = ckt
	e.view = core.NewCSR(ckt)
	e.bytes = estimateBytes(ckt)
	e.resident = true
	st.residentBytes += e.bytes
	st.reloads++
	st.log.Info("reloaded circuit from snapshot", "circuit", e.name)
}

// patternFile maps a pattern name to its snapshot filename.  Pattern names
// come from .SUBCKT identifiers; characters outside the snapshot-safe set
// are hex-escaped so distinct names stay distinct.
func patternFile(name string) string {
	safe := make([]byte, 0, len(name)+4)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, fmt.Sprintf("%%%02x", c)...)
		}
	}
	return string(safe) + ".subckt.sp"
}

// SavePattern persists one uploaded pattern template so it survives a
// daemon restart; a store without a data directory accepts and ignores the
// call.  The template is written as a .SUBCKT definition and re-listed in
// the manifest.
func (st *Store) SavePattern(name string, template *graph.Circuit) error {
	if st.dir == "" {
		return nil
	}
	path := filepath.Join(st.dir, patternsDir, patternFile(name))
	err := writeAtomic(path, func(w io.Writer) error {
		return netlist.WriteSubckt(w, template)
	})
	if err != nil {
		return fmt.Errorf("writing pattern snapshot %s: %w", path, err)
	}
	st.mu.Lock()
	st.patterns[name] = template
	st.mu.Unlock()
	return st.writeManifest()
}

// Patterns returns the persisted pattern templates loaded at boot (plus
// any saved since); the caller must clone before mutating a template.
func (st *Store) Patterns() map[string]*graph.Circuit {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]*graph.Circuit, len(st.patterns))
	for k, v := range st.patterns {
		out[k] = v
	}
	return out
}

// SaveLibrary records a named ordered list of pattern names — the unit a
// library sweep matches — replacing any previous definition, and persists
// it in the manifest so it survives a restart.  The store does not resolve
// the names; the serving layer validates them against its pattern sources.
func (st *Store) SaveLibrary(name string, patterns []string) error {
	if !ValidName(name) {
		return fmt.Errorf("invalid library name %q", name)
	}
	st.mu.Lock()
	st.libraries[name] = append([]string(nil), patterns...)
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	return st.writeManifest()
}

// Library returns the named library's pattern list.
func (st *Store) Library(name string) ([]string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pats, ok := st.libraries[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), pats...), true
}

// Libraries returns all library definitions, a copy keyed by name.
func (st *Store) Libraries() map[string][]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string][]string, len(st.libraries))
	for k, v := range st.libraries {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// DeleteLibrary removes the named library; ErrNotFound if absent.
func (st *Store) DeleteLibrary(name string) error {
	st.mu.Lock()
	_, ok := st.libraries[name]
	delete(st.libraries, name)
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: library %q", ErrNotFound, name)
	}
	if st.dir == "" {
		return nil
	}
	return st.writeManifest()
}
