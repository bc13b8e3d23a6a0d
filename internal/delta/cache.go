package delta

import (
	"sync"

	"subgemini/internal/core"
)

// ResultCache maps (circuit name, pattern key) to the incremental state
// captured by the last complete run and the circuit it describes: the
// install stamp of the stored circuit (store.Handle.Stamp) and its edit
// version.  The daemon keeps one cache across requests: a match or sweep
// against an edited circuit looks up the prior state, asks its store handle
// for the steps between the cached and current versions, and hands both to
// core.FindIncremental; on success the refreshed state is stored back.
//
// A capture describes one circuit only through its stamp: a replacement
// under the same name restarts the version at 1, and a run that acquired
// the old circuit may store its capture after the replacement, so Lookup
// treats a capture of another stamp as a miss.  Edits (PATCH) keep the
// stamp, since the versioned steps are exactly what lets a stale entry be
// carried forward.  Invalidate drops a replaced or deleted circuit's
// entries only to free their memory.  The cache is bounded; when full, the
// oldest entry is evicted (FIFO).
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*cacheEntry
	order   []cacheKey

	hits          uint64
	misses        uint64
	invalidations uint64
}

type cacheKey struct {
	circuit string
	pattern string
}

type cacheEntry struct {
	stamp   uint64
	version uint64
	state   *core.IncrementalState
}

// NewResultCache returns a cache bounded to max entries (<=0 means a
// default of 256).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = 256
	}
	return &ResultCache{max: max, entries: make(map[cacheKey]*cacheEntry)}
}

// Lookup returns the state cached for the install stamp of the named
// circuit and the circuit version it was captured at, or ok=false on a
// miss.
func (rc *ResultCache) Lookup(circuit, patternKey string, stamp uint64) (version uint64, state *core.IncrementalState, ok bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.entries[cacheKey{circuit, patternKey}]
	if e == nil || e.stamp != stamp {
		rc.misses++
		return 0, nil, false
	}
	rc.hits++
	return e.version, e.state, true
}

// Store records the state captured by a complete run on the circuit of the
// given install stamp and version.  Nil states (legacy or cancelled runs)
// are ignored.
func (rc *ResultCache) Store(circuit, patternKey string, stamp, version uint64, state *core.IncrementalState) {
	if state == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	k := cacheKey{circuit, patternKey}
	if e := rc.entries[k]; e != nil {
		e.stamp, e.version, e.state = stamp, version, state
		return
	}
	for len(rc.entries) >= rc.max && len(rc.order) > 0 {
		victim := rc.order[0]
		rc.order = rc.order[1:]
		if _, live := rc.entries[victim]; live {
			delete(rc.entries, victim)
		}
	}
	rc.entries[k] = &cacheEntry{stamp: stamp, version: version, state: state}
	rc.order = append(rc.order, k)
}

// Invalidate drops every entry for the named circuit and returns how many
// were dropped.  Lookup needs none of it to stay correct (see ResultCache);
// it frees the memory of captures no run can use.
func (rc *ResultCache) Invalidate(circuit string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for k := range rc.entries {
		if k.circuit == circuit {
			delete(rc.entries, k)
			n++
		}
	}
	rc.invalidations += uint64(n)
	return n
}

// Counters returns the lifetime hit, miss, and invalidation counts.
func (rc *ResultCache) Counters() (hits, misses, invalidations uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.hits, rc.misses, rc.invalidations
}

// Len returns the number of live entries.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}
