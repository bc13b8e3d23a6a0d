// Package subgemini is a technology-independent subcircuit matcher: a Go
// implementation of the SubGemini algorithm (Ohlrich, Ebeling, Ginting,
// Sather, "SubGemini: Identifying SubCircuits using a Fast Subgraph
// Isomorphism Algorithm", 30th DAC, 1993).
//
// Given a pattern subcircuit S and a main circuit G — both plain netlists of
// typed devices and nets, with no assumptions about technology or semantics
// — it finds every instance of S inside G.  Although subgraph isomorphism is
// NP-complete, circuits carry enough structure that matching runs in time
// roughly linear in the total number of devices inside the matched
// instances.
//
// The package is a facade over the implementation packages:
//
//   - circuit graphs: New, AddNet/AddDevice (see Circuit)
//   - netlist I/O: ParseNetlist, WriteNetlist, WriteSubckt
//   - matching: Find, NewMatcher, Options, Instance
//   - library sweeps: Sweep, SweepPattern, SweepOptions (one circuit,
//     many patterns, shared Phase I groundwork)
//   - algorithm tracing: NewTrace, RenderTrace (see ALGORITHM.md for the
//     phase-by-phase walkthrough)
//   - graph isomorphism (Gemini): Compare
//   - extraction and rule checking: ExtractCells, CheckRules
//   - the CMOS standard-cell library: Cell, Cells
//
// # Quick start
//
//	g, _ := subgemini.ParseNetlist(circuitSrc, "chip.sp")
//	main, _ := g.MainCircuit("chip")
//	res, _ := subgemini.Find(main, subgemini.Cell("NAND2").Pattern(),
//	    subgemini.Options{Globals: []string{"VDD", "GND"}})
//	for _, inst := range res.Instances {
//	    fmt.Println(inst.Devices())
//	}
package subgemini

import (
	"io"

	"subgemini/internal/baseline"
	"subgemini/internal/core"
	"subgemini/internal/extract"
	"subgemini/internal/gemini"
	"subgemini/internal/graph"
	"subgemini/internal/jobs"
	"subgemini/internal/netlist"
	"subgemini/internal/obs"
	"subgemini/internal/server"
	"subgemini/internal/sprecog"
	"subgemini/internal/stdcell"
	"subgemini/internal/sweep"
	"subgemini/internal/verilog"
)

// Circuit graph model (see the graph package for full documentation).
type (
	// Circuit is a bipartite circuit graph of devices and nets.
	Circuit = graph.Circuit
	// Device is a device vertex (transistor, gate, or any typed component).
	Device = graph.Device
	// Net is a net (wire) vertex.
	Net = graph.Net
	// Pin is one device terminal: its equivalence class and net.
	Pin = graph.Pin
	// TermClass is a terminal equivalence class; terminals sharing a class
	// are interchangeable (a MOS transistor's source and drain).
	TermClass = graph.TermClass
)

// MOS terminal classes used by the built-in netlist reader and cell library.
const (
	ClassDS   = graph.ClassDS
	ClassGate = graph.ClassGate
	ClassBulk = graph.ClassBulk
)

// New returns an empty circuit with the given name.
func New(name string) *Circuit { return graph.New(name) }

// Matching.
type (
	// Options configures a matching run; see core.Options.
	Options = core.Options
	// Instance is one verified embedding of the pattern.
	Instance = core.Instance
	// Result is a matching outcome: instances plus instrumentation.
	Result = core.Result
	// Matcher runs several patterns against one main circuit.
	Matcher = core.Matcher
	// OverlapPolicy selects MatchAll or NonOverlapping semantics.
	OverlapPolicy = core.OverlapPolicy
	// CircuitCSR is a flat adjacency view of a circuit; build one with
	// NewCircuitCSR and install it via Options.CSR so several matchers over
	// the same circuit share one flattening, one Phase II scratch pool and
	// the cached initial labeling of the last global set a run asked for.
	CircuitCSR = core.CSR
)

// NewCircuitCSR flattens a circuit into the CSR view both phases run on.
// Matchers build (and cache) one on demand, so this is only needed to
// share the view, and the scratch and labeling it carries, across matchers
// via Options.CSR.  The view is safe for concurrent matchers.
func NewCircuitCSR(g *Circuit) *CircuitCSR { return core.NewCSR(g) }

// Overlap policies.
const (
	MatchAll       = core.MatchAll
	NonOverlapping = core.NonOverlapping
)

// Find locates every instance of pattern s inside circuit g.
func Find(g, s *Circuit, opts Options) (*Result, error) { return core.Find(g, s, opts) }

// NewMatcher prepares a reusable matcher for one main circuit.
func NewMatcher(g *Circuit, opts Options) (*Matcher, error) { return core.NewMatcher(g, opts) }

// FindParallel is Find with candidate verification fanned out over the
// given number of workers (0 = GOMAXPROCS).  MatchAll policy only; results
// equal Find's up to a canonicalized instance order.  Under a trace
// (NewTrace) or with Options.TraceTable set it falls back to the
// sequential Find, so the trace and the tables keep their deterministic
// candidate order and no writer is shared between workers.
func FindParallel(g, s *Circuit, opts Options, workers int) (*Result, error) {
	m, err := core.NewMatcher(g, opts)
	if err != nil {
		return nil, err
	}
	return m.FindParallel(s, workers)
}

// Library sweeps (amortized multi-pattern matching).
type (
	// SweepPattern is one named entry of a sweep library.
	SweepPattern = sweep.Pattern
	// SweepOptions configures a library sweep.
	SweepOptions = sweep.Options
	// SweepReport is the merged outcome of a sweep: per-pattern results in
	// input order plus run/dedup accounting.
	SweepReport = sweep.Report
	// SweepPatternResult is one pattern's share of a sweep report.
	SweepPatternResult = sweep.PatternResult
)

// Sweep matches a whole pattern library against one circuit in a single
// run, building the main-graph adjacency view and initial Phase I labeling
// once, deduplicating structurally identical patterns, and fanning the
// per-pattern runs over a bounded worker pool.  Results are bit-identical
// to looping Find over the library, in library order.
func Sweep(g *Circuit, library []SweepPattern, opts SweepOptions) (*SweepReport, error) {
	return sweep.Run(g, library, opts)
}

// FindNaive runs the exhaustive depth-first reference matcher — the
// baseline SubGemini is compared against.  It is exponentially slower on
// large circuits but independent of the labeling machinery, which makes it
// useful for cross-checking.
func FindNaive(g, s *Circuit, globals []string, maxInstances int) ([]*Instance, error) {
	res, err := baseline.Find(g, s, baseline.Options{Globals: globals, MaxInstances: maxInstances})
	if err != nil {
		return nil, err
	}
	return res.Instances, nil
}

// NewTrace starts a trace, a span timeline that asks the matcher for
// algorithm detail, and returns its root scope for Options.Observe (or
// SweepOptions.Observe).  Besides its phase spans, every run under it
// records one span per Phase I half-pass and one per Phase II candidate
// examined.  After the run, scope.Timeline().JSON() is the trace:
// RenderTrace prints it, and its JSON encoding is what `subgemini -trace`
// writes and `tracefmt` reads.  See ALGORITHM.md for a worked example.
func NewTrace(name string) *obs.Scope { return obs.NewTrace(name).Scope(obs.NoSpan) }

// RenderTrace writes a trace as the per-run Phase I pass and Phase II
// candidate tables that `subgemini -v` and `tracefmt` print.
func RenderTrace(w io.Writer, t obs.TimelineJSON) { obs.RenderTrace(w, t) }

// Serving (the subgeminid daemon logic).
type (
	// Server is the long-lived HTTP/JSON matching service: a resident
	// circuit, a compiled-pattern cache, admission control, and metrics.
	// It implements http.Handler; see internal/server for the endpoints.
	Server = server.Server
	// ServerConfig parameterizes NewServer.
	ServerConfig = server.Config
	// ServerMatchRequest is the body of POST /v1/match, exported so Go
	// clients (examples/server) can marshal requests without duplicating
	// the wire format.
	ServerMatchRequest = server.MatchRequest
	// ServerMatchResponse is the body of a successful POST /v1/match.
	ServerMatchResponse = server.MatchResponse
	// ServerBatchRequest is the body of POST /v1/match/batch.
	ServerBatchRequest = server.BatchRequest
	// ServerBatchResponse is the body of a batch reply.
	ServerBatchResponse = server.BatchResponse
	// ServerCircuitInfo describes one stored circuit (PUT/GET
	// /v1/circuits/{name} and the legacy /v1/circuit endpoints).
	ServerCircuitInfo = server.CircuitInfo
	// ServerJobRequest is the body of POST /v1/jobs.
	ServerJobRequest = server.JobRequest
	// ServerExtractRequest is the payload of an extract job.
	ServerExtractRequest = server.ExtractRequest
	// ServerExtractResponse is the result of a finished extract job.
	ServerExtractResponse = server.ExtractResponse
	// ServerJobView is a job's externally visible state (GET /v1/jobs/{id}).
	ServerJobView = jobs.View
)

// NewServer builds the daemon state for cmd/subgeminid or for embedding
// the matching service into another process.  With ServerConfig.DataDir
// set, stored circuits and job records are reloaded from disk, so boot can
// fail on a corrupt data directory.  Callers owning the server's lifetime
// should Close it to drain jobs and flush snapshots.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Netlist I/O.
type (
	// NetlistFile is a parsed SPICE-subset netlist.
	NetlistFile = netlist.File
	// Subckt is a parsed .SUBCKT definition.
	Subckt = netlist.Subckt
)

// ParseNetlist parses SPICE-subset netlist source; name is used in errors.
func ParseNetlist(src, name string) (*NetlistFile, error) { return netlist.ParseString(src, name) }

// ReadNetlist parses a netlist from a reader.
func ReadNetlist(r io.Reader, name string) (*NetlistFile, error) { return netlist.Parse(r, name) }

// WriteNetlist emits a flat circuit as netlist cards.
func WriteNetlist(w io.Writer, c *Circuit) error { return netlist.WriteCircuit(w, c) }

// WriteSubckt emits a pattern circuit as a .SUBCKT definition.
func WriteSubckt(w io.Writer, c *Circuit) error { return netlist.WriteSubckt(w, c) }

// EncodeCircuitJSON writes a circuit in the JSON interchange format, for
// tooling that wants circuits without parsing SPICE or Verilog.
func EncodeCircuitJSON(w io.Writer, c *Circuit) error { return graph.EncodeJSON(w, c) }

// DecodeCircuitJSON reads a circuit in the JSON interchange format.
func DecodeCircuitJSON(r io.Reader) (*Circuit, error) { return graph.DecodeJSON(r) }

// VerilogModule is a parsed structural Verilog module.
type VerilogModule = verilog.Module

// ParseVerilog reads a structural Verilog module (gate instances plus
// nmos/pmos switch primitives).
func ParseVerilog(r io.Reader, name string) (*VerilogModule, error) { return verilog.Parse(r, name) }

// WriteVerilog emits a circuit as one structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit, moduleName string) error {
	return verilog.Write(w, c, moduleName)
}

// Graph isomorphism (Gemini).
type (
	// CompareOptions configures a Gemini comparison.
	CompareOptions = gemini.Options
	// CompareResult reports isomorphism plus a witness mapping or reason.
	CompareResult = gemini.Result
)

// Compare decides whether two circuits are isomorphic, Gemini-style.
func Compare(a, b *Circuit, opts CompareOptions) (*CompareResult, error) {
	return gemini.Compare(a, b, opts)
}

// HierCompareReport is the per-cell outcome of a hierarchical comparison.
type HierCompareReport = gemini.HierReport

// CompareHierarchical compares two hierarchical netlists cell-by-cell
// (shared .SUBCKT definitions with ports matched by name) plus a flat
// comparison of the expanded top levels, localizing mismatches to the
// cells that cause them (paper §I).
func CompareHierarchical(a, b *NetlistFile, opts CompareOptions) (*HierCompareReport, error) {
	return gemini.CompareHierarchical(a, b, opts)
}

// Extraction and rule checking.
type (
	// CellDef is a transistor-level standard cell.
	CellDef = stdcell.CellDef
	// ExtractOptions configures gate extraction.
	ExtractOptions = extract.Options
	// Extraction is one cell's extraction count.
	Extraction = extract.Extraction
	// Rule is a questionable-construct pattern for rule checking.
	Rule = extract.Rule
	// Violation is one rule-check hit.
	Violation = extract.Violation
)

// Cell returns the named cell from the built-in CMOS library (INV, BUF,
// NAND2/3/4, NOR2/3/4, AND2, OR2, AOI21/22, OAI21/22, XOR2, XNOR2, MUX2,
// TINV, HA, LATCH, DFF, SRAM6T, FA), or nil.
func Cell(name string) *CellDef { return stdcell.Get(name) }

// Cells returns the whole built-in cell library, sorted by name.
func Cells() []*CellDef { return stdcell.All() }

// ExtractCells converts a transistor circuit toward a gate-level one by
// extracting each cell (largest first) and replacing its instances with
// single gate devices.  The circuit is modified in place.
func ExtractCells(c *Circuit, cells []*CellDef, opts ExtractOptions) ([]Extraction, error) {
	return extract.Cells(c, cells, opts)
}

// ExtractSpec is a user-defined extraction pattern (see SpecsFromNetlist).
type ExtractSpec = extract.Spec

// SpecsFromNetlist turns every .SUBCKT of a parsed netlist into an
// extraction spec, so the extraction library is extended by writing
// subcircuits rather than code (paper §I).
func SpecsFromNetlist(f *NetlistFile) ([]ExtractSpec, error) {
	return extract.SpecsFromNetlist(f)
}

// ExtractSpecs is ExtractCells for user-defined pattern specs.
func ExtractSpecs(c *Circuit, specs []ExtractSpec, opts ExtractOptions) ([]Extraction, error) {
	return extract.Specs(c, specs, opts)
}

// WriteHierarchical emits an extracted circuit as a hierarchical netlist:
// .SUBCKT definitions for the library cells it uses, plus instance cards.
func WriteHierarchical(w io.Writer, c *Circuit) error {
	return extract.WriteHierarchical(w, c)
}

// StandardRules returns the built-in questionable-construct rule library.
func StandardRules() []*Rule { return extract.StandardRules() }

// CheckRules matches every rule pattern against the circuit.
func CheckRules(c *Circuit, rules []*Rule, globals []string) ([]Violation, error) {
	return extract.Check(c, rules, globals)
}

// Ad hoc recognizer (the §I comparison baseline).
type (
	// RecognizedGate is one static CMOS gate found by the classical
	// series-parallel recognizer.
	RecognizedGate = sprecog.Gate
	// RecognizeResult groups recognized gates and leftover regions.
	RecognizeResult = sprecog.Result
)

// RecognizeGates runs the classical channel-graph / series-parallel CMOS
// gate recognizer over a flat transistor circuit — the technology-specific
// ad hoc method the paper's introduction contrasts SubGemini with.  It
// names simple static gates and leaves pass-transistor structure
// unrecognized; see EXPERIMENTS.md E9 for the comparison.
func RecognizeGates(c *Circuit, vdd, gnd string) (*RecognizeResult, error) {
	return sprecog.Recognize(c, vdd, gnd)
}
