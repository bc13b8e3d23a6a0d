// Subgemini is the command-line pattern matcher: it finds every instance
// of a subcircuit inside a flat netlist.
//
// Usage:
//
//	subgemini -circuit chip.sp -pattern cells.sp -subckt NAND2 [flags]
//	subgemini -circuit chip.sp -cell NAND2 [flags]
//	subgemini -circuit chip.sp -library NAND2,NOR2,INV [flags]
//	subgemini -circuit chip.sp -pattern cells.sp -library all [flags]
//
// The circuit file's top-level cards form the main circuit (subcircuit
// instances are flattened).  The pattern comes either from a .SUBCKT in
// -pattern (selected with -subckt; if the file has exactly one definition,
// -subckt may be omitted) or from the built-in cell library via -cell.
//
// -library sweeps a whole set of patterns in one run, sharing the circuit
// adjacency view and initial Phase I labeling across them: a comma list of
// names (built-in cells, or .SUBCKTs of -pattern, which shadow same-named
// cells), or "all" for every .SUBCKT of -pattern (every built-in cell when
// -pattern is absent).  Output is a per-pattern count table.
//
// Flags:
//
//	-globals VDD,GND   treat these nets as special signals (in addition
//	                   to any .GLOBAL directives in the files)
//	-nonoverlap        report only disjoint instances (extraction
//	                   semantics) instead of all instances
//	-max N             stop after N instances
//	-workers N         verify Phase II candidates over N workers
//	                   (-1 = all CPUs; incompatible with -nonoverlap/-max)
//	-v                 print the run's trace to stderr: Phase I passes,
//	                   the candidate vector and one row per Phase II
//	                   candidate (the tables tracefmt renders)
//	-tracetable        print Table-1-style per-pass label tables
//	-trace FILE        write a subgemini-trace/v1 JSONL event stream
//	                   ("-" = stdout; render it with tracefmt)
//	-q                 print only the instance count
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"subgemini"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subgemini: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run executes the CLI against the given argument list, so tests can drive
// it without spawning a process.
func run(args []string, stdout, stderr io.Writer) error {
	flag := flag.NewFlagSet("subgemini", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		circuitPath = flag.String("circuit", "", "netlist file with the main circuit (required)")
		patternPath = flag.String("pattern", "", "netlist file holding the pattern .SUBCKT")
		subcktName  = flag.String("subckt", "", "name of the pattern .SUBCKT in -pattern")
		cellName    = flag.String("cell", "", "use a built-in library cell as the pattern")
		libraryCSV  = flag.String("library", "", `sweep a comma-separated set of patterns in one run ("all" = every -pattern .SUBCKT, or every built-in cell)`)
		globalsCSV  = flag.String("globals", "", "comma-separated special-signal nets")
		bindCSV     = flag.String("bind", "", "port bindings PORT=NET[,PORT=NET...]: each pattern port matches only the named net")
		nonOverlap  = flag.Bool("nonoverlap", false, "report only disjoint instances")
		maxInst     = flag.Int("max", 0, "stop after this many instances (0 = no limit)")
		workers     = flag.Int("workers", 0, "verify Phase II candidates over N workers, 0 = sequential (-1 = all CPUs; incompatible with -nonoverlap and -max)")
		verbose     = flag.Bool("v", false, "print the Phase I pass and Phase II candidate tables to stderr")
		traceTable  = flag.Bool("tracetable", false, "print a Table-1-style per-pass label table for every Phase II candidate")
		tracePath   = flag.String("trace", "", `write a subgemini-trace/v1 JSONL event stream to this file ("-" = stdout; render with tracefmt)`)
		quiet       = flag.Bool("q", false, "print only the instance count")
		asJSON      = flag.Bool("json", false, "print instances as JSON (pattern name -> image name maps)")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}
	if *circuitPath == "" {
		return fmt.Errorf("-circuit is required")
	}
	if *libraryCSV != "" {
		if *cellName != "" || *subcktName != "" {
			return fmt.Errorf("-library replaces -cell/-subckt; drop them")
		}
		if *nonOverlap {
			return fmt.Errorf("-library uses overlap semantics; drop -nonoverlap")
		}
		circuit, err := loadMain(*circuitPath)
		if err != nil {
			return err
		}
		lib, err := loadLibrary(*patternPath, *libraryCSV)
		if err != nil {
			return err
		}
		return runSweep(circuit, lib, sweepFlags{
			globalsCSV: *globalsCSV,
			maxInst:    *maxInst,
			workers:    *workers,
			quiet:      *quiet,
			asJSON:     *asJSON,
		}, stdout)
	}
	if (*patternPath == "") == (*cellName == "") {
		return fmt.Errorf("exactly one of -pattern or -cell is required")
	}

	circuit, err := loadMain(*circuitPath)
	if err != nil {
		return err
	}
	pattern, err := loadPattern(*patternPath, *subcktName, *cellName)
	if err != nil {
		return err
	}

	opts := subgemini.Options{MaxInstances: *maxInst}
	if *globalsCSV != "" {
		opts.Globals = strings.Split(*globalsCSV, ",")
	}
	if *bindCSV != "" {
		opts.Bind = make(map[string]string)
		for _, pair := range strings.Split(*bindCSV, ",") {
			port, net, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("-bind entry %q is not PORT=NET", pair)
			}
			opts.Bind[port] = net
		}
	}
	if *nonOverlap {
		opts.Policy = subgemini.NonOverlapping
	}
	if *traceTable {
		opts.TraceTable = stdout
	}
	var traceSink *subgemini.JSONLTracer
	if *tracePath != "" {
		out := io.Writer(stdout)
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		traceSink = subgemini.NewJSONLTracer(out)
		opts.Tracer = traceSink
	}
	var verboseLog *eventLog
	if *verbose {
		verboseLog = &eventLog{next: opts.Tracer}
		opts.Tracer = verboseLog
	}

	var res *subgemini.Result
	if *workers != 0 {
		if *nonOverlap {
			return fmt.Errorf("-workers requires overlap semantics; drop -nonoverlap")
		}
		if *maxInst > 0 {
			return fmt.Errorf("-workers cannot honor -max deterministically; drop one of them")
		}
		// -1 means "all CPUs", which FindParallel spells as 0.
		n := *workers
		if n < 0 {
			n = 0
		}
		res, err = subgemini.FindParallel(circuit, pattern, opts, n)
	} else {
		res, err = subgemini.Find(circuit, pattern, opts)
	}
	// Emit traces even when the match failed: a partial trace of an
	// aborted run is exactly what post-mortem debugging wants.
	if verboseLog != nil {
		subgemini.RenderTrace(stderr, verboseLog.events)
	}
	if traceSink != nil {
		if ferr := traceSink.Flush(); ferr != nil && err == nil {
			return fmt.Errorf("writing trace: %w", ferr)
		}
	}
	if err != nil {
		return err
	}
	if *quiet {
		fmt.Fprintln(stdout, len(res.Instances))
		return nil
	}
	if *asJSON {
		return writeJSON(stdout, res)
	}
	fmt.Fprintf(stdout, "circuit %s: %d devices, %d nets\n", circuit.Name, circuit.NumDevices(), circuit.NumNets())
	fmt.Fprintf(stdout, "pattern %s: %d devices\n", pattern.Name, pattern.NumDevices())
	fmt.Fprintf(stdout, "%d instance(s)\n", len(res.Instances))
	for i, inst := range res.Instances {
		fmt.Fprintf(stdout, "#%d:", i+1)
		for _, d := range inst.Devices() {
			fmt.Fprintf(stdout, " %s", d.Name)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "stats:", res.Report.String())
	return nil
}

// eventLog keeps every trace event of a run for -v, forwarding each to next
// (the -trace sink) when one is set.  A traced run is sequential, so the
// log needs no locking.
type eventLog struct {
	events []subgemini.TraceEvent
	next   subgemini.Tracer
}

func (l *eventLog) Event(e subgemini.TraceEvent) {
	l.events = append(l.events, e)
	if l.next != nil {
		l.next.Event(e)
	}
}

// sweepFlags carries the subset of CLI options the -library mode honors.
type sweepFlags struct {
	globalsCSV string
	maxInst    int
	workers    int
	quiet      bool
	asJSON     bool
}

// loadLibrary resolves -library into named pattern templates.  User
// .SUBCKTs from -pattern shadow same-named built-in cells; "all" selects
// every .SUBCKT of -pattern, or the whole built-in library without one.
func loadLibrary(patternPath, csv string) ([]subgemini.SweepPattern, error) {
	var f *subgemini.NetlistFile
	if patternPath != "" {
		var err error
		if f, err = parseFile(patternPath); err != nil {
			return nil, err
		}
	}
	var names []string
	if csv == "all" {
		if f != nil {
			for name := range f.Subckts {
				names = append(names, name)
			}
			sort.Strings(names)
		} else {
			for _, c := range subgemini.Cells() {
				names = append(names, c.Name)
			}
		}
	} else {
		names = strings.Split(csv, ",")
	}
	lib := make([]subgemini.SweepPattern, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if f != nil {
			if _, ok := f.Subckts[name]; ok {
				tpl, err := f.Pattern(name)
				if err != nil {
					return nil, err
				}
				lib = append(lib, subgemini.SweepPattern{Name: name, Template: tpl})
				continue
			}
		}
		def := subgemini.Cell(name)
		if def == nil {
			return nil, fmt.Errorf("no library cell or -pattern .SUBCKT named %q (cells: %s)", name, cellNames())
		}
		lib = append(lib, subgemini.SweepPattern{Name: name, Template: def.Pattern()})
	}
	return lib, nil
}

// runSweep executes the -library mode: one amortized run over the whole
// set, reported as a per-pattern count table.
func runSweep(circuit *subgemini.Circuit, lib []subgemini.SweepPattern, fl sweepFlags, stdout io.Writer) error {
	opts := subgemini.SweepOptions{MaxInstances: fl.maxInst}
	if fl.globalsCSV != "" {
		opts.Globals = strings.Split(fl.globalsCSV, ",")
	}
	switch {
	case fl.workers > 0:
		opts.Workers = fl.workers
	case fl.workers < 0:
		opts.Workers = 0 // all CPUs
	default:
		opts.Workers = 1 // sequential, like the single-pattern default
	}
	rep, err := subgemini.Sweep(circuit, lib, opts)
	if err != nil {
		return err
	}
	if fl.quiet {
		fmt.Fprintln(stdout, rep.Instances())
		return nil
	}
	if fl.asJSON {
		type entry struct {
			Pattern string `json:"pattern"`
			Alias   string `json:"alias,omitempty"`
			Count   int    `json:"count"`
		}
		out := make([]entry, 0, len(rep.Results))
		for i := range rep.Results {
			pr := &rep.Results[i]
			out = append(out, entry{Pattern: pr.Name, Alias: pr.Alias, Count: len(pr.Instances)})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "circuit %s: %d devices, %d nets\n", circuit.Name, circuit.NumDevices(), circuit.NumNets())
	fmt.Fprintf(stdout, "library: %d patterns, %d matcher runs (%d deduped), %v\n",
		len(rep.Results), rep.Runs, rep.Deduped, rep.Duration.Round(time.Microsecond))
	for i := range rep.Results {
		pr := &rep.Results[i]
		note := ""
		if pr.Alias != "" {
			note = "  (= " + pr.Alias + ")"
		}
		fmt.Fprintf(stdout, "%-12s %6d%s\n", pr.Name, len(pr.Instances), note)
	}
	fmt.Fprintf(stdout, "total        %6d\n", rep.Instances())
	return nil
}

// writeJSON emits the instances as a JSON array of name maps.
func writeJSON(w io.Writer, res *subgemini.Result) error {
	type inst struct {
		Devices map[string]string `json:"devices"`
		Nets    map[string]string `json:"nets"`
	}
	out := make([]inst, 0, len(res.Instances))
	for _, in := range res.Instances {
		ji := inst{Devices: map[string]string{}, Nets: map[string]string{}}
		for sd, gd := range in.DevMap {
			ji.Devices[sd.Name] = gd.Name
		}
		for sn, gnet := range in.NetMap {
			ji.Nets[sn.Name] = gnet.Name
		}
		out = append(out, ji)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func loadMain(path string) (*subgemini.Circuit, error) {
	f, err := parseFile(path)
	if err != nil {
		return nil, err
	}
	return f.MainCircuit(base(path))
}

func loadPattern(path, subckt, cell string) (*subgemini.Circuit, error) {
	if cell != "" {
		def := subgemini.Cell(cell)
		if def == nil {
			return nil, fmt.Errorf("no library cell named %q (available: %s)", cell, cellNames())
		}
		return def.Pattern(), nil
	}
	f, err := parseFile(path)
	if err != nil {
		return nil, err
	}
	if subckt == "" {
		if len(f.Subckts) != 1 {
			return nil, fmt.Errorf("%s defines %d subcircuits; select one with -subckt", path, len(f.Subckts))
		}
		for name := range f.Subckts {
			subckt = name
		}
	}
	return f.Pattern(subckt)
}

func parseFile(path string) (*subgemini.NetlistFile, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return subgemini.ReadNetlist(r, path)
}

func base(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return strings.TrimSuffix(path, ".sp")
}

func cellNames() string {
	var names []string
	for _, c := range subgemini.Cells() {
		names = append(names, c.Name)
	}
	return strings.Join(names, ", ")
}
