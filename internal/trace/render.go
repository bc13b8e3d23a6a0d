package trace

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// Render formats an event sequence as the per-run tables cmd/tracefmt
// prints and ALGORITHM.md embeds: a Phase I relabeling table (one row per
// pass, the paper's Fig. 2/4 viewed as counts), the candidate-vector
// selection line, and a Phase II candidate table (one row per candidate,
// the outcome summary of the paper's Table 1 walkthrough).  Events from
// several runs render as consecutive sections.
func Render(w io.Writer, events []Event) error {
	r := renderer{w: w}
	for _, e := range events {
		switch e.Kind {
		case KindRunStart:
			r.flush()
			fmt.Fprintf(w, "run: pattern %s in circuit %s (%d devices, %d nets)\n",
				e.Pattern, e.Circuit, e.Devices, e.Nets)
		case KindPhase1Pass:
			r.passes = append(r.passes, e)
		case KindCandidateVector:
			r.flushPhase1()
			if e.CVSize == 0 {
				fmt.Fprintf(w, "phase1: empty candidate vector — no instance can exist\n")
			} else {
				kind := "net"
				if e.KeyIsDevice {
					kind = "device"
				}
				fmt.Fprintf(w, "phase1: key vertex %s (%s), |CV| = %d\n", e.KeyVertex, kind, e.CVSize)
			}
		case KindPhase2Candidate:
			r.cands = append(r.cands, e)
		case KindRunEnd:
			r.flush()
			fmt.Fprintf(w, "run end: %d instance(s) from %d candidate(s)\n\n", e.Instances, e.Candidates)
		}
	}
	r.flush()
	if wr, ok := w.(interface{ Err() error }); ok {
		return wr.Err()
	}
	return nil
}

// renderer buffers pass and candidate events so each table is emitted
// complete, whatever order sections arrive in.
type renderer struct {
	w      io.Writer
	passes []Event
	cands  []Event
}

func (r *renderer) flush() {
	r.flushPhase1()
	r.flushPhase2()
}

func (r *renderer) flushPhase1() {
	if len(r.passes) == 0 {
		return
	}
	fmt.Fprintln(r.w, "Phase I relabeling:")
	tw := tabwriter.NewWriter(r.w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pass\tside\tS valid\tS corrupt\tS partitions\tG active\tG pruned")
	for _, e := range r.passes {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			e.Pass, e.Side, e.PatternValid, e.PatternCorrupt, e.PatternPartitions,
			e.MainActive, e.MainPruned)
	}
	tw.Flush()
	r.passes = r.passes[:0]
}

func (r *renderer) flushPhase2() {
	if len(r.cands) == 0 {
		return
	}
	fmt.Fprintln(r.w, "Phase II candidates:")
	tw := tabwriter.NewWriter(r.w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "candidate\toutcome\tpasses\tguesses\tbacktracks\ttime")
	for _, e := range r.cands {
		outcome := "no match"
		switch {
		case e.Matched:
			outcome = "MATCH"
		case e.GuessLimited:
			outcome = "guess limit"
		}
		// Durations are "-" when absent — docgen strips them so generated
		// documentation tables stay byte-for-byte reproducible.
		dur := "-"
		if e.DurationNS > 0 {
			dur = time.Duration(e.DurationNS).Round(time.Microsecond).String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\n",
			e.Candidate, outcome, e.Passes, e.Guesses, e.Backtracks, dur)
	}
	tw.Flush()
	r.cands = r.cands[:0]
}
