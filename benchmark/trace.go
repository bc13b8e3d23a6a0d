package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
)

// timeline is the part of a /debug/requests/{id} timeline the benchmark
// attributes.
type timeline struct {
	Scope      string `json:"scope"`
	DurationUS int64  `json:"duration_us"`
	Spans      []struct {
		Kind    string `json:"kind"`
		Parent  int32  `json:"parent"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	} `json:"spans"`
}

// attribution splits one operation's daemon time, in ms.
type attribution struct {
	role      string
	clientMS  float64 // client-observed latency
	serviceMS float64 // the daemon timeline's duration
	// unattributedMS is the part of the timeline no top-level span covers:
	// JSON decoding and encoding, netlist parsing, instance conversion.
	unattributedMS float64
	queueWaitMS    float64
	persistMS      float64
}

// fetchTimelines reads back the daemon's timeline of every op, oldest op
// first: each fetch is itself recorded and evicts the ring's oldest
// timeline, which by then has already been read.  Ops whose timeline the
// ring no longer holds are counted as missing.
func fetchTimelines(h *httpClient, ops []op) (attrs []attribution, missing int, err error) {
	sorted := append([]op(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	for _, o := range sorted {
		resp, status, _, err := h.call(http.MethodGet, "/debug/requests/"+url.PathEscape(o.rid), "", nil)
		if err != nil {
			return nil, 0, fmt.Errorf("fetching timeline %s: %w", o.rid, err)
		}
		if status == http.StatusNotFound {
			missing++
			continue
		}
		if status != http.StatusOK {
			return nil, 0, fmt.Errorf("fetching timeline %s: status %d", o.rid, status)
		}
		var r struct {
			Timelines []timeline `json:"timelines"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, 0, fmt.Errorf("decoding timeline %s: %w", o.rid, err)
		}
		if tl := pickTimeline(r.Timelines); tl != nil {
			attrs = append(attrs, attribute(o, tl))
		} else {
			missing++
		}
	}
	return attrs, missing, nil
}

// pickTimeline chooses the timeline that did an operation's work: the
// async job's when the request spawned one, else the HTTP request's.
func pickTimeline(tls []timeline) *timeline {
	var pick *timeline
	for i := range tls {
		if tls[i].Scope != "http" || pick == nil {
			pick = &tls[i]
		}
	}
	return pick
}

func attribute(o op, tl *timeline) attribution {
	a := attribution{role: o.role, clientMS: ms(o.lat), serviceMS: float64(tl.DurationUS) / 1e3}
	type interval struct{ lo, hi int64 }
	var roots []interval
	for _, sp := range tl.Spans {
		switch sp.Kind {
		case "queue-wait":
			a.queueWaitMS += float64(sp.DurUS) / 1e3
		case "persist":
			a.persistMS += float64(sp.DurUS) / 1e3
		}
		if sp.Parent < 0 {
			roots = append(roots, interval{sp.StartUS, sp.StartUS + sp.DurUS})
		}
	}
	// Sweep workers emit overlapping top-level spans, so cover their union.
	sort.Slice(roots, func(i, j int) bool { return roots[i].lo < roots[j].lo })
	var covered, reach int64
	for _, r := range roots {
		lo := max(r.lo, reach)
		if r.hi > lo {
			covered += r.hi - lo
			reach = r.hi
		}
	}
	a.unattributedMS = float64(tl.DurationUS-covered) / 1e3
	return a
}
