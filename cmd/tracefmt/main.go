// Tracefmt renders timeline JSON as human-readable text.  A trace — the
// file `subgemini -trace` writes, a timeline whose creator asked for
// algorithm detail — renders as one Phase I relabeling table and one
// Phase II candidate table per run.  A subgeminid request timeline — the
// body of GET /debug/requests/{id}, or a single timeline object from the
// list endpoint — renders as an indented span table, so forensics on a
// captured request is one pipe away:
//
//	curl -s localhost:8080/debug/requests/r-ab12-000003 | tracefmt
//
// Usage:
//
//	subgemini -circuit chip.sp -cell NAND2 -trace run.json
//	tracefmt run.json
//
// With no argument (or "-") the timeline is read from stdin.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"

	"subgemini/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracefmt: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the renderer against the given argument list, so tests can
// drive it without spawning a process.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 1 {
		return fmt.Errorf("usage: tracefmt [timeline.json]")
	}
	in := stdin
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	src, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	tls, err := parseTimelines(src)
	if err != nil {
		return err
	}
	for i, tl := range tls {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if tl.Scope == obs.ScopeTrace {
			obs.RenderTrace(stdout, tl)
		} else {
			obs.RenderTimeline(stdout, tl)
		}
	}
	return nil
}

// parseTimelines reads the two timeline shapes: the GET
// /debug/requests/{id} envelope ({"request_id":..., "timelines":[...]})
// and a bare timeline object ({"request_id":..., "spans":[...]}), which is
// also what `subgemini -trace` writes.
func parseTimelines(src []byte) ([]obs.TimelineJSON, error) {
	var probe struct {
		Timelines []obs.TimelineJSON `json:"timelines"`
		Spans     []obs.SpanJSON     `json:"spans"`
	}
	err := json.Unmarshal(src, &probe)
	switch {
	case err == nil && len(probe.Timelines) > 0:
		return probe.Timelines, nil
	case err == nil && probe.Spans != nil:
		var tl obs.TimelineJSON
		if err := json.Unmarshal(src, &tl); err != nil {
			return nil, err
		}
		return []obs.TimelineJSON{tl}, nil
	}
	return nil, fmt.Errorf(`input is not timeline JSON: want one timeline object {"request_id":..., "spans":[...]} (as subgemini -trace writes) or a /debug/requests/{id} envelope {"timelines":[...]}`)
}
