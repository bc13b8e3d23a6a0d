package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// RenderTimeline writes one timeline as an indented span table: each span on
// a row with its start offset, duration, kind, name, and attributes, children
// indented under their parents.  This is what `tracefmt` prints for a
// /debug/requests/{id} payload.
func RenderTimeline(w io.Writer, t TimelineJSON) {
	fmt.Fprintf(w, "request %s  %s", t.RequestID, t.Scope)
	if t.Method != "" || t.Path != "" {
		fmt.Fprintf(w, "  %s %s", t.Method, t.Path)
	}
	fmt.Fprintf(w, "  status=%d  total=%s", t.Status, fmtUS(t.DurationUS))
	if t.Cancelled {
		fmt.Fprint(w, "  cancelled")
	}
	if t.KeepReason != "" {
		fmt.Fprintf(w, "  kept=%s", t.KeepReason)
	}
	fmt.Fprintln(w)

	// Children grouped under parents, siblings in start order.
	children := make(map[int32][]int)
	for i, sp := range t.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	for _, idxs := range children {
		sort.SliceStable(idxs, func(a, b int) bool {
			return t.Spans[idxs[a]].StartUS < t.Spans[idxs[b]].StartUS
		})
	}
	var walk func(parent int32, depth int)
	walk = func(parent int32, depth int) {
		for _, i := range children[parent] {
			sp := t.Spans[i]
			fmt.Fprintf(w, "  %9s  %9s  ", "+"+fmtUS(sp.StartUS), fmtUS(sp.DurUS))
			for d := 0; d < depth; d++ {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprint(w, sp.Kind)
			if sp.Name != "" {
				fmt.Fprintf(w, " (%s)", sp.Name)
			}
			if sp.Open {
				fmt.Fprint(w, " [open]")
			}
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, "  %s=%s", k, sp.Attrs[k])
				}
			}
			fmt.Fprintln(w)
			walk(int32(i), depth+1)
		}
	}
	walk(int32(NoSpan), 0)
}

// RenderTrace writes a trace (see NewTrace) as the matcher's algorithm
// tables, one section per run: the run line from its phase1 span, a
// Phase I relabeling table with one row per pass span (the paper's Fig. 2/4
// viewed as counts), the candidate-vector line, a Phase II candidate table
// with one row per candidate span (the outcome summary of the paper's
// Table 1 walkthrough), and the run's totals from its phase2 span.  A run
// cut by cancellation ends where it was cut.  Candidate times below 1µs,
// and times zeroed for reproducible output, print as "-".
func RenderTrace(w io.Writer, t TimelineJSON) {
	children := make(map[int32][]int)
	for i, sp := range t.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	kids := func(parent int, kind string) []SpanJSON {
		var out []SpanJSON
		for _, j := range children[int32(parent)] {
			if t.Spans[j].Kind == kind {
				out = append(out, t.Spans[j])
			}
		}
		return out
	}
	for i, p1 := range t.Spans {
		if p1.Kind != KindPhase1 {
			continue
		}
		// The run's phase2 span is the next same-named phase2 sibling,
		// unless the pattern's next run starts first.
		p2 := -1
		for _, j := range children[p1.Parent] {
			sp := t.Spans[j]
			if j <= i || sp.Name != p1.Name {
				continue
			}
			if sp.Kind == KindPhase2 {
				p2 = j
			}
			if sp.Kind == KindPhase1 || sp.Kind == KindPhase2 {
				break
			}
		}
		a := p1.Attrs
		fmt.Fprintf(w, "run: pattern %s in circuit %s (%s devices, %s nets)\n",
			p1.Name, a["circuit"], a["devices"], a["nets"])
		if passes := kids(i, KindPass); len(passes) > 0 {
			fmt.Fprintln(w, "Phase I relabeling:")
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "pass\tside\tS valid\tS corrupt\tS partitions\tG active\tG pruned")
			for _, sp := range passes {
				pa := sp.Attrs
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", pa["pass"], pa["side"],
					pa["s_valid"], pa["s_corrupt"], pa["s_partitions"], pa["g_active"], pa["g_pruned"])
			}
			tw.Flush()
		}
		key, done := a["key"]
		if !done {
			continue // cut inside Phase I
		}
		if a["cv_size"] == "0" {
			fmt.Fprintln(w, "phase1: empty candidate vector — no instance can exist")
		} else {
			kind := "net"
			if a["key_is_device"] == "true" {
				kind = "device"
			}
			fmt.Fprintf(w, "phase1: key vertex %s (%s), |CV| = %s\n", key, kind, a["cv_size"])
		}
		var b map[string]string
		if p2 >= 0 {
			b = t.Spans[p2].Attrs
			if cands := kids(p2, KindCandidate); len(cands) > 0 {
				fmt.Fprintln(w, "Phase II candidates:")
				tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
				fmt.Fprintln(tw, "candidate\toutcome\tpasses\tguesses\tbacktracks\ttime")
				for _, sp := range cands {
					ca := sp.Attrs
					outcome := "no match"
					switch {
					case ca["matched"] == "true":
						outcome = "MATCH"
					case ca["guess_limited"] == "true":
						outcome = "guess limit"
					}
					dur := "-"
					if sp.DurUS > 0 {
						dur = (time.Duration(sp.DurUS) * time.Microsecond).String()
					}
					fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", sp.Name, outcome,
						ca["passes"], ca["guesses"], ca["backtracks"], dur)
				}
				tw.Flush()
			}
		}
		// A phase2 span cut by cancellation carries candidates but no
		// instances; its run has no totals.
		_, examined := b["candidates"]
		_, finished := b["instances"]
		if examined && !finished {
			continue
		}
		fmt.Fprintf(w, "run end: %s instance(s) from %s candidate(s)\n\n",
			count(b, "instances"), count(b, "candidates"))
	}
}

// count returns the count attribute k, or "0" when the span lacks it.
func count(a map[string]string, k string) string {
	if v, ok := a[k]; ok {
		return v
	}
	return "0"
}

// fmtUS renders a microsecond count compactly (µs below 1ms, ms below 1s,
// seconds above).
func fmtUS(us int64) string {
	switch {
	case us < 1_000:
		return fmt.Sprintf("%dµs", us)
	case us < 1_000_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%.3fs", float64(us)/1e6)
	}
}
