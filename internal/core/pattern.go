package core

import (
	"fmt"
	"slices"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// pattern wraps a validated subcircuit with its vertex space and the
// precomputed sets Phase I/II need for one run.
type pattern struct {
	s     *graph.Circuit
	space *label.Space

	// The run's special-signal set (see Matcher.prepare): global marks the
	// pattern nets in it, by net index, and gGlobals lists the main-graph
	// nets in it, ascending.  Neither circuit's Net.Global flags are read
	// past prepare.
	global   []bool
	gGlobals []int32

	// bind maps each bound pattern port to the name of its required image
	// (from Options.Bind), resolved and validated.
	bind map[*graph.Net]string

	// required is the number of vertices Phase II must match: every device
	// plus every net that is neither global nor bound.
	required int

	// wildcards reports whether any pattern device has graph.WildcardType.
	// Wildcard devices match any main-graph device with the same terminal
	// count and classes; their labels are unusable in Phase I (they start
	// corrupt) and Phase II drops the type fold from device base labels on
	// both sides so image labels still agree.
	wildcards bool
}

// fixed reports whether a pattern net is pre-matched (global or bound) and
// therefore outside the labeling machinery.
func (p *pattern) fixed(n *graph.Net) bool {
	if p.global[n.Index] {
		return true
	}
	_, ok := p.bind[n]
	return ok
}

// globalSet resolves a run's special-signal set (paper §V.A): names plus
// the nets marked global on g or on s (s may be nil), applied to both
// circuits by name.  It returns the set and the main-graph nets in it,
// ascending.
func globalSet(g, s *graph.Circuit, names []string) (map[string]bool, []int32) {
	set := make(map[string]bool, len(names)+2)
	for _, name := range names {
		set[name] = true
	}
	for _, c := range []*graph.Circuit{g, s} {
		if c == nil {
			continue
		}
		for _, n := range c.Nets {
			if n.Global {
				set[n.Name] = true
			}
		}
	}
	var gGlobals []int32
	for name := range set {
		if n := g.NetByName(name); n != nil {
			gGlobals = append(gGlobals, int32(n.Index))
		}
	}
	slices.Sort(gGlobals)
	return set, gGlobals
}

// newPattern validates the subcircuit under the run's special-signal set
// (see globalSet):
//
//   - it must contain at least one device;
//   - every net with zero connections is rejected (it could never be
//     matched by structure);
//   - the pattern must be connected once global nets are removed, because
//     Phase II spreads labels only through non-global nets — a pattern whose
//     components touch only at Vdd/GND would stall with unlabeled vertices.
func newPattern(s *graph.Circuit, opts *Options, globals map[string]bool, gGlobals []int32) (*pattern, error) {
	if s.NumDevices() == 0 {
		return nil, fmt.Errorf("core: pattern %s has no devices", s.Name)
	}
	for _, n := range s.Nets {
		if n.Degree() == 0 {
			return nil, fmt.Errorf("core: pattern %s: net %s has no connections", s.Name, n.Name)
		}
	}
	p := &pattern{s: s, space: label.NewSpace(s), bind: make(map[*graph.Net]string),
		global: make([]bool, len(s.Nets)), gGlobals: gGlobals}
	for i, n := range s.Nets {
		p.global[i] = globals[n.Name]
	}
	for _, d := range s.Devices {
		if d.Type == graph.WildcardType {
			p.wildcards = true
		}
	}
	for portName, target := range opts.Bind {
		if target == "" {
			return nil, fmt.Errorf("core: pattern %s: port %q bound to an empty net name", s.Name, portName)
		}
		n := s.NetByName(portName)
		if n == nil {
			return nil, fmt.Errorf("core: pattern %s: bound port %q does not exist", s.Name, portName)
		}
		if !n.Port {
			return nil, fmt.Errorf("core: pattern %s: bound net %q is not a port", s.Name, portName)
		}
		if p.global[n.Index] {
			return nil, fmt.Errorf("core: pattern %s: net %q is global and cannot also be bound", s.Name, portName)
		}
		p.bind[n] = target
	}
	if err := checkConnected(p); err != nil {
		return nil, err
	}
	p.required = s.NumDevices()
	for _, n := range s.Nets {
		if !p.fixed(n) {
			p.required++
		}
	}
	return p, nil
}

// distFrom returns every pattern vertex's hop distance from vertex from
// over the traversal that ignores fixed (global or bound) nets, and -1 for
// the fixed nets themselves.  The Phase II engine reads one such BFS from
// the key twice: eccFrom takes its radius from it, and the admit tables
// take their forward edges (next-level neighbours) from it.  One BFS over
// the pattern, O(V+E); callers must not pass a fixed net.
func (p *pattern) distFrom(from label.VID) []int32 {
	size := p.space.Size()
	dist := make([]int32, size)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]label.VID, 1, size)
	queue[0] = from
	dist[from] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if p.space.IsDevice(u) {
			for _, pin := range p.space.Device(u).Pins {
				if p.fixed(pin.Net) {
					continue
				}
				nv := p.space.NetVID(pin.Net)
				if dist[nv] < 0 {
					dist[nv] = dist[u] + 1
					queue = append(queue, nv)
				}
			}
		} else {
			for _, conn := range p.space.Net(u).Conns {
				dv := p.space.DevVID(conn.Dev)
				if dist[dv] < 0 {
					dist[dv] = dist[u] + 1
					queue = append(queue, dv)
				}
			}
		}
	}
	return dist
}

// eccFrom returns the eccentricity of the BFS source of dist: the largest
// hop distance from it to any device or non-fixed net.  The
// region-localized Phase II engine keys on the key vertex's eccentricity:
// any instance whose key image is c lies entirely within that many hops of
// c through non-fixed vertices, because every pattern vertex is that close
// to the key through non-fixed vertices (checkConnected guarantees
// reachability) and the image of such a path is a same-length path through
// non-fixed main-graph vertices.
func eccFrom(dist []int32) int {
	far := int32(0)
	for _, d := range dist {
		far = max(far, d)
	}
	return int(far)
}

// checkConnected verifies that all devices and non-fixed nets form a single
// connected component when edges through fixed (global or bound) nets are
// ignored — Phase II spreads labels only through unfixed nets, so a pattern
// whose components touch only at Vdd/GND or a bound clock would stall.
func checkConnected(p *pattern) error {
	s := p.s
	space := p.space
	visited := make([]bool, space.Size())
	// BFS from the first device.
	queue := []label.VID{space.DevVID(s.Devices[0])}
	visited[queue[0]] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if space.IsDevice(v) {
			d := space.Device(v)
			for _, pin := range d.Pins {
				if p.fixed(pin.Net) {
					continue
				}
				nv := space.NetVID(pin.Net)
				if !visited[nv] {
					visited[nv] = true
					queue = append(queue, nv)
				}
			}
		} else {
			n := space.Net(v)
			for _, conn := range n.Conns {
				dv := space.DevVID(conn.Dev)
				if !visited[dv] {
					visited[dv] = true
					queue = append(queue, dv)
				}
			}
		}
	}
	for _, d := range s.Devices {
		if !visited[space.DevVID(d)] {
			return fmt.Errorf("core: pattern %s is disconnected (device %s unreachable ignoring global and bound nets)", s.Name, d.Name)
		}
	}
	for _, n := range s.Nets {
		if !p.fixed(n) && !visited[space.NetVID(n)] {
			return fmt.Errorf("core: pattern %s is disconnected (net %s unreachable ignoring global and bound nets)", s.Name, n.Name)
		}
	}
	return nil
}
