package delta

import (
	"fmt"
	"sort"
	"strings"

	"subgemini/internal/core"
	"subgemini/internal/graph"
)

// PatternKey returns a canonical encoding of everything that determines a
// match result besides the main circuit itself: the pattern's structure
// (types, terminal classes, adjacency by index), its port/global/bound
// nets, and the result-relevant matcher options.  Two runs with equal keys
// against the same circuit version produce bit-identical results, so the
// key addresses the versioned result cache.
//
// Net and device names are deliberately excluded except where matching
// itself is name-based: global nets (matched by name) and bind-target
// ports (resolved by name).  MaxInstances is excluded: a cached state from
// a truncated run replays correctly under any limit because outcomes are
// per-candidate truths independent of where the instance cap cut the scan.
func PatternKey(pat *graph.Circuit, opts core.Options) string {
	var b strings.Builder
	for _, d := range pat.Devices {
		b.WriteString("d ")
		b.WriteString(d.Type)
		for _, p := range d.Pins {
			fmt.Fprintf(&b, " %d:%d", p.Class, p.Net.Index)
		}
		b.WriteByte('\n')
	}
	bound := make(map[string]string)
	for port, target := range opts.Bind {
		bound[port] = target
	}
	for _, n := range pat.Nets {
		b.WriteString("n")
		if n.Port {
			b.WriteString(" port")
		}
		if n.Global {
			fmt.Fprintf(&b, " global %q", n.Name)
		}
		if target, ok := bound[n.Name]; ok {
			fmt.Fprintf(&b, " bind %q=%q", n.Name, target)
		}
		b.WriteByte('\n')
	}
	globals := append([]string(nil), opts.Globals...)
	sort.Strings(globals)
	fmt.Fprintf(&b, "o globals=%q seed=%d policy=%d\n", globals, opts.Seed, opts.Policy)
	return b.String()
}
