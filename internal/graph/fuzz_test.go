package graph_test

import (
	"bytes"
	"testing"

	"subgemini/internal/graph"
)

// FuzzDecodeJSON feeds DecodeJSON, which the store runs on its JSON
// snapshots at boot, arbitrary bytes.  Decoding never panics, a circuit it
// returns validates, and its encoding is stable: decoding the encoding and
// encoding again gives the same bytes.  The seed corpus in
// testdata/fuzz/FuzzDecodeJSON holds EncodeJSON output for the paper
// example, the NAND2 pattern and a few internal/gen circuits, and
// malformed or odd documents (truncated, a duplicate net entry, an
// undeclared net, a class past 255, escapes).  `go test` runs the corpus;
// `go test -fuzz FuzzDecodeJSON` explores further.
func FuzzDecodeJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := graph.DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("decoded circuit does not validate: %v", err)
		}
		var once, twice bytes.Buffer
		if err := graph.EncodeJSON(&once, c); err != nil {
			t.Fatalf("encoding the decoded circuit: %v", err)
		}
		back, err := graph.DecodeJSON(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding the encoding: %v\n%s", err, once.Bytes())
		}
		if err := graph.EncodeJSON(&twice, back); err != nil {
			t.Fatalf("encoding again: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding is not stable\nfirst:\n%s\nsecond:\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
