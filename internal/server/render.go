package server

// The instance renderer: match results go to the wire straight from
// core.Instances, without building a map[string]string pair per instance
// and without encoding/json's reflection, key sorting and re-indenting on
// the single-match path.  The bytes are exactly those encoding/json writes
// for the public response types (MatchResponse, BatchResponse,
// SweepResponse), whose InstanceJSON maps it sorts by key and escapes
// HTML-safely; the server builds the unexported mirrors below instead, and
// clients keep decoding into the public types.

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"subgemini/internal/core"
	"subgemini/internal/graph"
)

// matchResult is the server-side form of MatchResponse: the same fields in
// the same order, with the instances still core.Instances.
type matchResult struct {
	Circuit     string           `json:"circuit"`
	Pattern     string           `json:"pattern"`
	Count       int              `json:"count"`
	Instances   instanceList     `json:"instances"`
	Stats       StatsJSON        `json:"stats"`
	CacheHit    bool             `json:"cache_hit"`
	Version     uint64           `json:"version,omitempty"`
	Incremental *IncrementalJSON `json:"incremental,omitempty"`
}

// batchItem and batchResult mirror BatchItem and BatchResponse.  An item's
// match is rendered while its circuit handle is held (renderCompact).
type batchItem struct {
	Index   int             `json:"index"`
	Pattern string          `json:"pattern,omitempty"`
	Status  int             `json:"status"`
	Error   string          `json:"error,omitempty"`
	Match   json.RawMessage `json:"match,omitempty"`
}

type batchResult struct {
	Results []batchItem `json:"results"`
}

// sweepPatternResult and sweepResult mirror SweepPatternJSON and
// SweepResponse.  A pattern's instances are rendered while the sweep's
// circuit handle is held.
type sweepPatternResult struct {
	Pattern   string          `json:"pattern"`
	Alias     string          `json:"alias,omitempty"`
	Count     int             `json:"count"`
	Stats     StatsJSON       `json:"stats"`
	Instances json.RawMessage `json:"instances,omitempty"`
}

type sweepResult struct {
	Circuit        string               `json:"circuit"`
	Library        string               `json:"library,omitempty"`
	Patterns       int                  `json:"patterns"`
	Runs           int                  `json:"runs"`
	Deduped        int                  `json:"deduped"`
	Count          int                  `json:"count"`
	Results        []sweepPatternResult `json:"results"`
	DurationMicros int64                `json:"duration_us"`
	Version        uint64               `json:"version,omitempty"`
	Replayed       int                  `json:"replayed,omitempty"`
	Recomputed     int                  `json:"recomputed,omitempty"`
}

// instanceList is a match's instances on their way to the wire, each
// rendered as InstanceJSON renders: {"devices": {...}, "nets": {...}}
// mapping pattern names to main-graph names.  The instances point into
// the circuit, which a PATCH may edit in place once no handle holds it, so
// a list is rendered while the handle it was matched under is held.
type instanceList []*core.Instance

// MarshalJSON renders the list compactly, for responses that go through
// encoding/json (batch items, job results), which then indents it along
// with the rest of the response.
func (l instanceList) MarshalJSON() ([]byte, error) {
	return appendInstances(nil, l, ""), nil
}

// renderCompact renders a match result as compact JSON, for a batch item
// or a job result that outlives the result's circuit handle.
func renderCompact(r *matchResult) json.RawMessage {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err) // the result holds only strings, numbers and instances
	}
	return raw
}

// writeRendered writes a rendered JSON response body with status 200.
func writeRendered(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// renderMatch renders a POST /v1/match response body: byte for byte what
// writeJSON writes for the equivalent MatchResponse (two-space indent,
// HTML-safe escaping, keys in byte order, trailing newline), with the
// instances rendered straight into the indented output.
func renderMatch(r *matchResult) []byte {
	b := make([]byte, 0, 1024+len(r.Instances)*instanceSize(r.Instances))
	b = append(b, "{\n  \"circuit\": "...)
	b = appendString(b, r.Circuit)
	b = append(b, ",\n  \"pattern\": "...)
	b = appendString(b, r.Pattern)
	b = append(b, ",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = append(b, ",\n  \"instances\": "...)
	b = appendInstances(b, r.Instances, "  ")
	b = append(b, ",\n  \"stats\": "...)
	b = appendIndented(b, &r.Stats)
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, r.CacheHit)
	if r.Version != 0 {
		b = append(b, ",\n  \"version\": "...)
		b = strconv.AppendUint(b, r.Version, 10)
	}
	if r.Incremental != nil {
		b = append(b, ",\n  \"incremental\": "...)
		b = appendIndented(b, r.Incremental)
	}
	return append(b, "\n}\n"...)
}

// instanceSize estimates the indented bytes of one instance of l.
func instanceSize(l []*core.Instance) int {
	if len(l) == 0 {
		return 0
	}
	return 48 + 40*(len(l[0].DevMap)+len(l[0].NetMap))
}

// appendIndented appends the encoding/json rendering of a small value
// nested one level inside an indented response object.
func appendIndented(b []byte, v any) []byte {
	raw, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		panic(err) // the response structs hold only strings and numbers
	}
	return append(b, raw...)
}

// instanceKeys is the pattern side shared by the instances of one list,
// sorted by name and pre-escaped once: `"name": ` (or `"name":` when
// compact) for each pattern device and net.
type instanceKeys struct {
	devs           []*graph.Device
	nets           []*graph.Net
	devKey, netKey []string
}

func newInstanceKeys(in *core.Instance, colon string) *instanceKeys {
	k := &instanceKeys{
		devs: make([]*graph.Device, 0, len(in.DevMap)),
		nets: make([]*graph.Net, 0, len(in.NetMap)),
	}
	for d := range in.DevMap {
		k.devs = append(k.devs, d)
	}
	for n := range in.NetMap {
		k.nets = append(k.nets, n)
	}
	slices.SortFunc(k.devs, func(a, b *graph.Device) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(k.nets, func(a, b *graph.Net) int { return strings.Compare(a.Name, b.Name) })
	for _, d := range k.devs {
		k.devKey = append(k.devKey, string(appendString(nil, d.Name))+colon)
	}
	for _, n := range k.nets {
		k.netKey = append(k.netKey, string(appendString(nil, n.Name))+colon)
	}
	return k
}

// appendInstances appends l as a JSON array.  indent "" renders compactly;
// otherwise indent is the indentation of the line the array opens on, and
// the rendering is what encoding/json's two-space indenting produces there.
// Every instance of one match maps the same pattern vertices, so the keys
// are sorted once per list; an instance that maps others re-derives them.
func appendInstances(b []byte, l []*core.Instance, indent string) []byte {
	if len(l) == 0 {
		return append(b, "[]"...)
	}
	// Line breaks before the array's elements (in1), the instance fields
	// (in2) and the map entries (in3), and before the closing bracket (in0).
	in0, in1, in2, in3, colon := "", "", "", "", ":"
	if indent != "" {
		in0 = "\n" + indent
		in1, in2, in3, colon = in0+"  ", in0+"    ", in0+"      ", ": "
	}
	keys := newInstanceKeys(l[0], colon)
	b = append(b, '[')
	for i, in := range l {
		if i > 0 {
			b = append(b, ',')
		}
		mark := len(b)
		var ok bool
		b, ok = appendInstance(b, in, keys, in1, in2, in3, colon)
		if !ok {
			keys = newInstanceKeys(in, colon)
			b, _ = appendInstance(b[:mark], in, keys, in1, in2, in3, colon)
		}
	}
	b = append(b, in0...)
	return append(b, ']')
}

// appendInstance appends one instance object; ok is false, with b
// partially written, when in does not map exactly the keys' vertices.
func appendInstance(b []byte, in *core.Instance, k *instanceKeys, in1, in2, in3, colon string) (_ []byte, ok bool) {
	if len(in.DevMap) != len(k.devs) || len(in.NetMap) != len(k.nets) {
		return b, false
	}
	b = append(b, in1...)
	b = append(b, '{')
	b = append(b, in2...)
	b = append(b, `"devices"`...)
	b = append(b, colon...)
	b = append(b, '{')
	for j, d := range k.devs {
		img, ok := in.DevMap[d]
		if !ok {
			return b, false
		}
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, in3...)
		b = append(b, k.devKey[j]...)
		b = appendString(b, img.Name)
	}
	if len(k.devs) > 0 {
		b = append(b, in2...)
	}
	b = append(b, "},"...)
	b = append(b, in2...)
	b = append(b, `"nets"`...)
	b = append(b, colon...)
	b = append(b, '{')
	for j, n := range k.nets {
		img, ok := in.NetMap[n]
		if !ok {
			return b, false
		}
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, in3...)
		b = append(b, k.netKey[j]...)
		b = appendString(b, img.Name)
	}
	if len(k.nets) > 0 {
		b = append(b, in2...)
	}
	b = append(b, '}')
	b = append(b, in1...)
	return append(b, '}'), true
}

// appendString appends s as a JSON string, escaped exactly as encoding/json
// escapes it.  Names are almost always printable ASCII with nothing to
// escape and are copied as they are; anything else goes through
// encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
