package server

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

// Pattern sources, reported by /v1/cells.
const (
	sourceBuiltin  = "builtin"
	sourceUploaded = "uploaded"
)

// defaultMaxPatterns bounds the compiled-pattern cache when the operator
// does not set Config.MaxPatterns.  Patterns are small (tens of devices),
// so the bound guards against unbounded growth from adversarial or buggy
// clients uploading endless distinct patterns, not against ordinary use.
const defaultMaxPatterns = 256

// patternCache holds compiled pattern graphs keyed by name, so a pattern is
// parsed and built once and served from memory afterwards.  Entries hold an
// immutable template circuit that every use shares: matching, sweeps and
// extraction only read patterns, so concurrent requests need no copy.
//
// The cache is bounded: at most cap entries, evicted least-recently-used.
// Eviction is safe for both sources — built-in cells recompile on demand
// (a future miss), and uploaded patterns persisted by the store reload the
// same way uploaded circuits do (re-upload otherwise).
type patternCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*list.Element // value: *patternEntry
	lru       *list.List               // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

// patternEntry is one compiled pattern.
type patternEntry struct {
	name     string
	source   string // sourceBuiltin or sourceUploaded
	template *graph.Circuit
	uses     int64
}

func newPatternCache(capacity int) *patternCache {
	if capacity <= 0 {
		capacity = defaultMaxPatterns
	}
	return &patternCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// touchLocked moves an entry to the MRU position.
func (pc *patternCache) touchLocked(el *list.Element) {
	pc.lru.MoveToFront(el)
}

// insertLocked installs (or replaces) an entry and evicts down to cap.
func (pc *patternCache) insertLocked(e *patternEntry) {
	if el, ok := pc.entries[e.name]; ok {
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[e.name] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		victim := back.Value.(*patternEntry)
		pc.lru.Remove(back)
		delete(pc.entries, victim.name)
		pc.evictions++
	}
}

// resolve returns the named pattern's template, compiling it on first use:
// a cached entry is a hit; a built-in cell compiled on demand is a miss; an
// unknown name is an error.  count=false (preloading) records neither hits
// nor misses.  Callers must not mutate the template.
func (pc *patternCache) resolve(name string, count bool) (*graph.Circuit, bool, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[name]; ok {
		e := el.Value.(*patternEntry)
		if count {
			pc.hits++
		}
		e.uses++
		pc.touchLocked(el)
		return e.template, true, nil
	}
	def := stdcell.Get(name)
	if def == nil {
		return nil, false, fmt.Errorf("no pattern named %q (built-in cells and uploaded patterns; see /v1/cells)", name)
	}
	if count {
		pc.misses++
	}
	e := &patternEntry{name: name, source: sourceBuiltin, template: def.Pattern(), uses: 1}
	if !count {
		e.uses = 0
	}
	pc.insertLocked(e)
	return e.template, false, nil
}

// put stores a compiled uploaded pattern, replacing any same-named entry,
// and records a miss (the caller just paid the parse+build cost).
func (pc *patternCache) put(name string, template *graph.Circuit, count bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if count {
		pc.misses++
	}
	uses := int64(1)
	if !count {
		uses = 0
	}
	pc.insertLocked(&patternEntry{name: name, source: sourceUploaded, template: template, uses: uses})
}

// template returns the cached immutable template for name, if present.
// Callers must not mutate it.
func (pc *patternCache) template(name string) (*graph.Circuit, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[name]; ok {
		return el.Value.(*patternEntry).template, true
	}
	return nil, false
}

// compileNetlist parses inline pattern netlist source and compiles the
// selected .SUBCKT (subckt may be empty when the source defines exactly
// one).  The compiled pattern is cached under its subcircuit name, so later
// requests can refer to it by name alone, and returned as that template.
func (pc *patternCache) compileNetlist(src, subckt string, count bool) (*graph.Circuit, error) {
	f, err := netlist.ParseString(src, "pattern")
	if err != nil {
		return nil, err
	}
	if subckt == "" {
		if len(f.Subckts) != 1 {
			return nil, fmt.Errorf("pattern netlist defines %d subcircuits; select one with \"subckt\"", len(f.Subckts))
		}
		for name := range f.Subckts {
			subckt = name
		}
	}
	template, err := f.Pattern(subckt)
	if err != nil {
		return nil, err
	}
	pc.put(subckt, template, count)
	return template, nil
}

// cellInfo is one row of the /v1/cells listing.
type cellInfo struct {
	Name    string   `json:"name"`
	Source  string   `json:"source"`
	Devices int      `json:"devices"`
	Nets    int      `json:"nets"`
	Ports   []string `json:"ports"`
	Cached  bool     `json:"cached"`
	Uses    int64    `json:"uses"`
}

// list returns every known pattern — cached entries plus not-yet-compiled
// built-in cells — sorted by name.
func (pc *patternCache) list() []cellInfo {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	byName := make(map[string]cellInfo)
	for _, def := range stdcell.All() {
		byName[def.Name] = cellInfo{
			Name:    def.Name,
			Source:  sourceBuiltin,
			Devices: def.NumTransistors(),
			Ports:   def.Ports,
		}
	}
	for name, el := range pc.entries {
		e := el.Value.(*patternEntry)
		info := cellInfo{
			Name:    name,
			Source:  e.source,
			Devices: e.template.NumDevices(),
			Nets:    e.template.NumNets(),
			Cached:  true,
			Uses:    e.uses,
		}
		for _, p := range e.template.Ports() {
			info.Ports = append(info.Ports, p.Name)
		}
		byName[name] = info
	}
	out := make([]cellInfo, 0, len(byName))
	for _, info := range byName {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// cacheCounters is a snapshot of the cache's accounting.
type cacheCounters struct {
	hits      int64
	misses    int64
	evictions int64
	size      int
}

func (pc *patternCache) counters() cacheCounters {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return cacheCounters{hits: pc.hits, misses: pc.misses, evictions: pc.evictions, size: pc.lru.Len()}
}
