// Docgen regenerates the generated sections of the repository's living
// documents, so they cannot drift from what the code actually does:
//
//   - ALGORITHM.md: the trace tables of the paper's Fig. 1 worked example
//     (internal/gen/paperex), rendered from one run of the real matcher
//     under a trace (obs.NewTrace) with Options.TraceTable installed.
//   - OPERATIONS.md: the subgeminid metrics reference, generated from the
//     server's metric registry (server.MetricsReference), and the
//     fault-injection point table, generated from the faults registry
//     (faults.List).
//
// A staleness test in this package (and `make docs-check`) fails whenever
// a committed file no longer matches the regenerated output; `make docs`
// (or `go run ./cmd/docgen -write`) refreshes them.
//
// Usage:
//
//	docgen [-write | -check] [file ...]
//
// With no files both documents are processed; with no flag the regenerated
// documents are printed to stdout.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/gen"
	"subgemini/internal/gen/paperex"
	"subgemini/internal/obs"
	"subgemini/internal/server"
	"subgemini/internal/stdcell"

	// The fault-point table must see every registration; the server import
	// above pulls in jobs, store, and sweep transitively, but keep the
	// dependency explicit for the points those packages own.
	_ "subgemini/internal/jobs"
	_ "subgemini/internal/store"
	_ "subgemini/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("docgen: ")
	write := flag.Bool("write", false, "rewrite the files in place")
	check := flag.Bool("check", false, "exit nonzero if any file is stale")
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"ALGORITHM.md", "OPERATIONS.md"}
	}
	stale := false
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		fresh, err := regenerate(path, string(doc))
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		switch {
		case *check:
			if fresh != string(doc) {
				log.Printf("%s is stale: regenerate it with `make docs`", path)
				stale = true
			}
		case *write:
			if fresh != string(doc) {
				if err := os.WriteFile(path, []byte(fresh), 0o644); err != nil {
					log.Fatal(err)
				}
			}
		default:
			os.Stdout.WriteString(fresh)
		}
	}
	if stale {
		os.Exit(1)
	}
}

// blocksFor returns the generated blocks for one document, keyed by marker
// name.
func blocksFor(path string) (map[string]string, error) {
	switch base := filepath.Base(path); base {
	case "ALGORITHM.md":
		return algorithmBlocks()
	case "OPERATIONS.md":
		return operationsBlocks()
	default:
		return nil, fmt.Errorf("no generated blocks known for %s", base)
	}
}

// algorithmBlocks runs the Fig. 1 example once, under a trace and with a
// TraceTable installed, and returns the generated trace blocks.
func algorithmBlocks() (map[string]string, error) {
	g := paperex.PaperMain()
	var table bytes.Buffer
	tl := obs.NewTrace("paper-example")
	res, err := core.Find(g, paperex.PaperPattern(), core.Options{
		TraceTable: &table,
		Observe:    tl.Scope(obs.NoSpan),
	})
	if err != nil {
		return nil, err
	}
	if len(res.Instances) != 1 {
		return nil, fmt.Errorf("paper example found %d instances, want 1 — the worked example is broken", len(res.Instances))
	}
	js := tl.JSON()
	// Wall-clock durations are the one nondeterministic field; zero them so
	// RenderTrace prints "-" and the generated document is byte-stable.
	for i := range js.Spans {
		js.Spans[i].DurUS = 0
	}
	var run bytes.Buffer
	obs.RenderTrace(&run, js)
	blast, err := incrementalBlastRadiusBlock()
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"paper-example-trace":      fence(run.String()),
		"paper-example-table1":     fence(table.String()),
		"phase2-regions":           phase2RegionsBlock(res, js.Spans, g.NumDevices()+g.NumNets()),
		"incremental-blast-radius": blast,
	}, nil
}

// incrementalBlastRadiusBlock runs the real incremental engine on a
// deterministic circuit — capture a NAND2 match, rewire k pins through the
// delta engine, replay — and renders how the blast radius grows with edit
// size: how much of the previous run's Phase II work survives the edit.
func incrementalBlastRadiusBlock() (string, error) {
	opts := core.Options{Globals: []string{"VDD", "GND"}}
	pat := stdcell.NAND2.Pattern()
	var b strings.Builder
	b.WriteString("| edited pins | dirty vertices | mode | replayed | recomputed | re-verified | instances |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, k := range []int{1, 2, 4, 8} {
		// A fresh circuit per row: delta.Apply mutates in place, and each
		// row's edit batch must land on the pristine version-1 graph.  The
		// workload is the quick-mode bench circuit (seeded, so byte-stable).
		c := gen.RandomLogic(400, 32, 11).C
		m, err := core.NewMatcher(c, opts)
		if err != nil {
			return "", err
		}
		cold, state, err := m.FindIncremental(pat, nil, nil)
		if err != nil {
			return "", err
		}
		if len(cold.Instances) == 0 {
			return "", fmt.Errorf("blast-radius capture found no NAND2 instances; workload degenerate")
		}
		ops := make([]delta.Op, k)
		for i := range ops {
			dev := c.Devices[(i*997+13)%len(c.Devices)]
			ops[i] = delta.Op{Op: delta.OpRewirePin, Device: dev.Name, Pin: 0, Net: fmt.Sprintf("eco%d", i)}
		}
		step, err := delta.Apply(c, 2, ops)
		if err != nil {
			return "", err
		}
		ds, err := delta.Compose([]*delta.Step{step})
		if err != nil {
			return "", err
		}
		em, err := core.NewMatcher(c, opts)
		if err != nil {
			return "", err
		}
		warm, _, err := em.FindIncremental(pat, state, ds)
		if err != nil {
			return "", err
		}
		rep := warm.Report
		if rep.IncrementalMode == "replay" && rep.Replayed == 0 {
			return "", fmt.Errorf("blast-radius row k=%d replayed nothing; the incremental engine is inert", k)
		}
		share := "-"
		if total := rep.Replayed + rep.Recomputed; total > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(rep.Recomputed)/float64(total))
		}
		fmt.Fprintf(&b, "| %d | %d | %s | %d | %d | %s | %d |\n",
			k, rep.DirtyVertices, rep.IncrementalMode, rep.Replayed, rep.Recomputed, share, len(warm.Instances))
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// phase2RegionsBlock renders the per-candidate region table of a run from
// the ball sizes its candidate spans report; vertices is the size of the
// run's main graph.
func phase2RegionsBlock(res *core.Result, spans []obs.SpanJSON, vertices int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Key vertex radius %d (pattern eccentricity); G has %d vertices.\n\n",
		res.Report.RegionRadius, vertices)
	b.WriteString("| candidate | ball vertices | share of G | passes | outcome |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, sp := range spans {
		if sp.Kind != obs.KindCandidate {
			continue
		}
		outcome := "refuted"
		if sp.Attrs["matched"] == "true" {
			outcome = "match"
		}
		ball, _ := strconv.Atoi(sp.Attrs["ball"])
		fmt.Fprintf(&b, "| %s | %d | %.0f%% | %s | %s |\n",
			sp.Name, ball, 100*float64(ball)/float64(vertices), sp.Attrs["passes"], outcome)
	}
	return strings.TrimRight(b.String(), "\n")
}

// operationsBlocks renders the runbook's generated reference tables from
// the live registries.
func operationsBlocks() (map[string]string, error) {
	var fp strings.Builder
	fp.WriteString("| Point | Fires at |\n|---|---|\n")
	for _, p := range faults.List() {
		fmt.Fprintf(&fp, "| `%s` | %s |\n", p.Name, p.Desc)
	}
	return map[string]string{
		"metrics-reference": strings.TrimRight(server.MetricsReferenceMarkdown(), "\n"),
		"fault-points":      strings.TrimRight(fp.String(), "\n"),
	}, nil
}

func fence(s string) string {
	return "```text\n" + strings.TrimRight(s, "\n") + "\n```"
}

// regenerate splices every generated block into doc and returns the result.
// Every block must have its marker pair present, and every marker pair in
// the document must correspond to a known block, so a renamed section fails
// loudly instead of silently sticking to stale content.
func regenerate(path, doc string) (string, error) {
	blocks, err := blocksFor(path)
	if err != nil {
		return "", err
	}
	for name, content := range blocks {
		begin := fmt.Sprintf("<!-- generated:begin %s -->", name)
		end := fmt.Sprintf("<!-- generated:end %s -->", name)
		i := strings.Index(doc, begin)
		j := strings.Index(doc, end)
		if i < 0 || j < 0 || j < i {
			return "", fmt.Errorf("marker pair for block %q not found in document", name)
		}
		doc = doc[:i+len(begin)] + "\n" + content + "\n" + doc[j:]
	}
	if n := strings.Count(doc, "<!-- generated:begin "); n != len(blocks) {
		return "", fmt.Errorf("document has %d generated:begin markers, docgen knows %d blocks", n, len(blocks))
	}
	return doc, nil
}
