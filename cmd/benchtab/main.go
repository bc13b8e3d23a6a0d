// Benchtab summarizes Go benchmark output.  It reads the text of
// `go test -bench ... -count N` on stdin and prints one table per
// top-level benchmark: a row per sub-benchmark, with its sample count, and
// a column per unit in first-seen order.  A cell reads "median [q1–q3]";
// a value that is the same in every sample prints once.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkE[4-9]' -count 10 . | benchtab [-json out.json]
//
// `make bench` runs this over the paper's tables, which bench_test.go
// defines (benchtab knows only the format), and archives BENCH_<rev>.json.
// Configuration lines ("key: value": go test's goos, goarch, pkg and cpu,
// and the commit and go lines `make bench` prints first) become the
// summary's meta block.  GOMAXPROCS comes from the "-N" suffix the testing
// package appends to every benchmark name, and is 1 without a common one.
//
// With -json, the summary is also written to a file (schema
// "subgemini-benchtab/v2", documented in EXPERIMENTS.md).  A failed run in
// the input ("FAIL", "--- FAIL", "panic:"), or no benchmark line at all,
// makes benchtab exit 1, so a pipe from a failing run fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"unicode"
)

// schema identifies the -json document's layout.
const schema = "subgemini-benchtab/v2"

// Stat summarizes one unit's samples.  The quartiles are those of
// Python's statistics.quantiles(xs, n=4), as in the repository's
// end-to-end benchmark.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`

	same bool // every sample holds the same value
}

// Row is one sub-benchmark's summary: N sample lines, and a Stat per unit.
type Row struct {
	Benchmark string          `json:"benchmark"`
	Row       string          `json:"row"`
	N         int             `json:"n"`
	Units     map[string]Stat `json:"units"`
}

// Summary is the -json document: the run's meta block and one Row per
// sub-benchmark, in first-seen order.
type Summary struct {
	Schema  string            `json:"schema"`
	Meta    map[string]string `json:"meta"`
	Results []Row             `json:"results"`

	units map[string][]string // each benchmark's units, in first-seen order
}

func main() {
	jsonPath := flag.String("json", "", "also write the summary to this file as JSON")
	flag.Parse()
	s, err := summarize(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	s.print(os.Stdout)
	if *jsonPath != "" {
		js, err := json.MarshalIndent(s, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(js, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// result is one benchmark line: its full name and (unit, value) pairs.
type result struct {
	name   string
	units  []string
	values []float64
}

// summarize reads Go benchmark text and summarizes every row and unit.
func summarize(r io.Reader) (*Summary, error) {
	meta := map[string]string{}
	var results []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:") {
			return nil, fmt.Errorf("the run failed: %s", line)
		}
		if res, ok := parseResult(line); ok {
			results = append(results, res)
		} else if k, v, ok := parseConfig(line); ok {
			meta[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results in the input")
	}

	suffix := procsSuffix(results)
	meta["GOMAXPROCS"] = "1"
	if suffix != "" {
		meta["GOMAXPROCS"] = suffix[1:]
	}
	s := &Summary{Schema: schema, Meta: meta, units: map[string][]string{}}
	type key struct{ bench, row string }
	index := map[key]int{}
	var samples []map[string][]float64
	for _, res := range results {
		bench, row, _ := strings.Cut(strings.TrimSuffix(res.name, suffix), "/")
		i, ok := index[key{bench, row}]
		if !ok {
			i = len(s.Results)
			index[key{bench, row}] = i
			s.Results = append(s.Results, Row{Benchmark: bench, Row: row, Units: map[string]Stat{}})
			samples = append(samples, map[string][]float64{})
		}
		s.Results[i].N++
		for j, unit := range res.units {
			if !slices.Contains(s.units[bench], unit) {
				s.units[bench] = append(s.units[bench], unit)
			}
			samples[i][unit] = append(samples[i][unit], res.values[j])
		}
	}
	for i, row := range samples {
		for unit, xs := range row {
			q := quartiles(xs)
			s.Results[i].Units[unit] = Stat{Median: q[1], Q1: q[0], Q3: q[2], N: len(xs),
				same: slices.Min(xs) == slices.Max(xs)}
		}
	}
	return s, nil
}

// print writes one table per benchmark.
func (s *Summary) print(w io.Writer) {
	keys := make([]string, 0, len(s.Meta))
	for k := range s.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %s\n", k, s.Meta[k])
	}
	for i := 0; i < len(s.Results); {
		bench := s.Results[i].Benchmark
		units := s.units[bench]
		fmt.Fprintf(w, "\n%s\n", bench)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "row\tn\t%s\n", strings.Join(units, "\t"))
		for ; i < len(s.Results) && s.Results[i].Benchmark == bench; i++ {
			r := &s.Results[i]
			fmt.Fprintf(tw, "%s\t%d", r.Row, r.N)
			for _, unit := range units {
				st, ok := r.Units[unit]
				cell := "-"
				if ok {
					cell = st.format(unit)
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}

// format renders a Stat as "median [q1–q3]", or the median alone when
// every sample agrees.  Units counted in nanoseconds ("ns/op",
// "ns/matched-dev", "phase1-ns") print as durations, the quartiles in the
// median's scale.
func (st Stat) format(unit string) string {
	scale, suffix := 1.0, ""
	if strings.HasPrefix(unit, "ns/") || strings.HasSuffix(unit, "-ns") {
		switch m := math.Abs(st.Median); {
		case m >= 1e9:
			scale, suffix = 1e9, "s"
		case m >= 1e6:
			scale, suffix = 1e6, "ms"
		case m >= 1e3:
			scale, suffix = 1e3, "µs"
		default:
			suffix = "ns"
		}
	}
	v := num(st.Median/scale) + suffix
	if st.same {
		return v
	}
	return fmt.Sprintf("%s [%s–%s]", v, num(st.Q1/scale), num(st.Q3/scale))
}

// num prints a value with three significant digits, or whole when it is
// an integer or at least 1000.
func num(v float64) string {
	a := math.Abs(v)
	if a >= 1000 || v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	digits := 2 - int(math.Floor(math.Log10(a)))
	return strconv.FormatFloat(v, 'f', digits, 64)
}

// parseResult parses a benchmark line: a name that starts with
// "Benchmark" and an upper-case or non-letter rune, an iteration count,
// and (value, unit) pairs.
func parseResult(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return result{}, false
	}
	name, ok := strings.CutPrefix(f[0], "Benchmark")
	if !ok || name == "" || unicode.IsLower(rune(name[0])) {
		return result{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return result{}, false
	}
	res := result{name: f[0]}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		res.values = append(res.values, v)
		res.units = append(res.units, f[i+1])
	}
	return res, true
}

// parseConfig parses a configuration line, "key: value", whose key starts
// with a lower-case letter and holds no space or upper-case rune.
func parseConfig(line string) (key, value string, ok bool) {
	key, value, ok = strings.Cut(line, ":")
	if !ok || key == "" || !unicode.IsLower(rune(key[0])) || strings.IndexFunc(key, func(r rune) bool {
		return unicode.IsSpace(r) || unicode.IsUpper(r)
	}) >= 0 || (value != "" && value[0] != ' ' && value[0] != '\t') {
		return "", "", false
	}
	return key, strings.TrimSpace(value), true
}

// procsSuffix returns the "-N" suffix every result name shares, or "" if
// they do not all end in the same one.
func procsSuffix(results []result) string {
	first := results[0].name
	i := strings.LastIndexByte(first, '-') // -1 leaves a name Atoi refuses
	if _, err := strconv.Atoi(first[i+1:]); err != nil {
		return ""
	}
	for _, res := range results {
		if !strings.HasSuffix(res.name, first[i:]) {
			return ""
		}
	}
	return first[i:]
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default exclusive method, which
// extrapolates for fewer than four samples); one sample gives three equal
// points.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	if n == 1 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
