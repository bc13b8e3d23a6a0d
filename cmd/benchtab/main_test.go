package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// transcript is `go test -bench -count 4` text as `make bench` feeds it:
// its config lines, GOMAXPROCS 2 suffixes, custom units, a row (big)
// missing from the third run and a column (devices) the same in every
// sample.
const transcript = `commit: abc1234-dirty
go: go1.24.0
goos: linux
goarch: amd64
pkg: subgemini
cpu: Intel(R) Xeon(R) Processor
BenchmarkE5Scaling/small/64-2    	     100	   1000 ns/op	  64.00 devices	   10.0 ns/matched-dev
BenchmarkE5Scaling/big/128-2     	      50	   4000 ns/op	 128.0 devices	   20.0 ns/matched-dev
BenchmarkE9Coverage/mult4/adhoc-2	      10	   3000 ns/op	   0.5000 coverage
BenchmarkE5Scaling/small/64-2    	     100	   2000 ns/op	  64.00 devices	   12.0 ns/matched-dev
BenchmarkE5Scaling/big/128-2     	      50	   6000 ns/op	 128.0 devices	   30.0 ns/matched-dev
BenchmarkE9Coverage/mult4/adhoc-2	      10	   3000 ns/op	   0.5000 coverage
BenchmarkE5Scaling/small/64-2    	     100	   3000 ns/op	  64.00 devices	   14.0 ns/matched-dev
BenchmarkE9Coverage/mult4/adhoc-2	      10	   3000 ns/op	   0.5000 coverage
    bench_test.go:12: a log line
BenchmarkE5Scaling/small/64-2    	     100	   4000 ns/op	  64.00 devices	   16.0 ns/matched-dev
BenchmarkE5Scaling/big/128-2     	      50	   5000 ns/op	 128.0 devices	   25.0 ns/matched-dev
BenchmarkE9Coverage/mult4/adhoc-2	      10	   3000 ns/op	   0.5000 coverage
PASS
ok  	subgemini	12.345s
`

func TestSummarizeTranscript(t *testing.T) {
	s, err := summarize(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := map[string]string{
		"commit": "abc1234-dirty", "go": "go1.24.0", "goos": "linux", "goarch": "amd64",
		"pkg": "subgemini", "cpu": "Intel(R) Xeon(R) Processor", "GOMAXPROCS": "2",
	}
	if len(s.Meta) != len(wantMeta) {
		t.Errorf("meta = %v, want %v", s.Meta, wantMeta)
	}
	for k, v := range wantMeta {
		if s.Meta[k] != v {
			t.Errorf("meta[%s] = %q, want %q", k, s.Meta[k], v)
		}
	}

	type cell struct {
		bench, row, unit string
		want             Stat
	}
	// Quartiles as Python's statistics.quantiles(xs, n=4) computes them:
	// of 1000, 2000, 3000, 4000 they are 1250, 2500 and 3750; of 4000,
	// 5000, 6000 they are 4000, 5000 and 6000.
	for _, c := range []cell{
		{"BenchmarkE5Scaling", "small/64", "ns/op", Stat{Median: 2500, Q1: 1250, Q3: 3750, N: 4}},
		{"BenchmarkE5Scaling", "small/64", "ns/matched-dev", Stat{Median: 13, Q1: 10.5, Q3: 15.5, N: 4}},
		{"BenchmarkE5Scaling", "small/64", "devices", Stat{Median: 64, Q1: 64, Q3: 64, N: 4}},
		{"BenchmarkE5Scaling", "big/128", "ns/op", Stat{Median: 5000, Q1: 4000, Q3: 6000, N: 3}},
		{"BenchmarkE5Scaling", "big/128", "ns/matched-dev", Stat{Median: 25, Q1: 20, Q3: 30, N: 3}},
		{"BenchmarkE9Coverage", "mult4/adhoc", "coverage", Stat{Median: 0.5, Q1: 0.5, Q3: 0.5, N: 4}},
	} {
		var row *Row
		for i := range s.Results {
			if s.Results[i].Benchmark == c.bench && s.Results[i].Row == c.row {
				row = &s.Results[i]
			}
		}
		if row == nil {
			t.Fatalf("no row %s %s in %+v", c.bench, c.row, s.Results)
		}
		got := row.Units[c.unit]
		got.same = false
		if got != c.want {
			t.Errorf("%s %s %s = %+v, want %+v", c.bench, c.row, c.unit, got, c.want)
		}
		if row.N != c.want.N {
			t.Errorf("%s %s: n = %d, want %d", c.bench, c.row, row.N, c.want.N)
		}
	}
	if len(s.Results) != 3 {
		t.Errorf("%d rows, want 3", len(s.Results))
	}

	var out bytes.Buffer
	s.print(&out)
	for _, want := range []string{
		"row       n  ns/op               devices  ns/matched-dev",
		"small/64  4  2.50µs [1.25–3.75]  64       13ns [10.5–15.5]",
		"big/128   3  5µs [4–6]           128      25ns [20–30]",
		"mult4/adhoc  4  3µs    0.500",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("tables lack %q:\n%s", want, out.String())
		}
	}

	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string
		Meta    map[string]string
		Results []struct {
			Benchmark, Row string
			N              int
			Units          map[string]map[string]float64
		}
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "subgemini-benchtab/v2" || doc.Meta["commit"] != "abc1234-dirty" || doc.Results[1].Units["ns/op"]["q3"] != 6000 {
		t.Errorf("JSON document = %s", js)
	}
}

// TestSummarizeRejects: a failed run, or input with no benchmark line,
// must not summarize to an archive.
func TestSummarizeRejects(t *testing.T) {
	for _, in := range []string{
		"goos: linux\nBenchmarkX/a-2 \t 1\t 10 ns/op\n--- FAIL: BenchmarkX/b-2\nFAIL\n",
		"goos: linux\nPASS\nok  \tsubgemini\t0.1s\n",
	} {
		if _, err := summarize(strings.NewReader(in)); err == nil {
			t.Errorf("summarize(%q) succeeded, want an error", in)
		}
	}
}

// TestProcsWithoutSuffix: at GOMAXPROCS 1 the testing package adds no
// suffix, so a name's own trailing "-N" must not be read as one.
func TestProcsWithoutSuffix(t *testing.T) {
	in := "BenchmarkParallel/workers-1 \t 1\t 10 ns/op\nBenchmarkParallel/workers-2 \t 1\t 10 ns/op\n"
	s, err := summarize(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta["GOMAXPROCS"] != "1" || s.Results[0].Row != "workers-1" || s.Results[1].Row != "workers-2" {
		t.Errorf("meta %v, rows %q and %q", s.Meta, s.Results[0].Row, s.Results[1].Row)
	}
}
