package core

import (
	"fmt"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// pattern wraps a validated subcircuit with its vertex space and the
// precomputed sets Phase I/II need.
type pattern struct {
	s     *graph.Circuit
	space *label.Space

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
	if n.Global {
		return true
	}
	_, ok := p.bind[n]
	return ok
}

// newPattern validates the subcircuit:
//
//   - it must contain at least one device;
//   - nets named in opts.Globals are marked global;
//   - every net with zero connections is rejected (it could never be
//     matched by structure);
//   - the pattern must be connected once global nets are removed, because
//     Phase II spreads labels only through non-global nets — a pattern whose
//     components touch only at Vdd/GND would stall with unlabeled vertices.
func newPattern(s *graph.Circuit, opts *Options) (*pattern, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil pattern")
	}
	if s.NumDevices() == 0 {
		return nil, fmt.Errorf("core: pattern %s has no devices", s.Name)
	}
	for _, name := range opts.Globals {
		s.MarkGlobal(name)
	}
	for _, n := range s.Nets {
		if n.Degree() == 0 {
			return nil, fmt.Errorf("core: pattern %s: net %s has no connections", s.Name, n.Name)
		}
	}
	p := &pattern{s: s, space: label.NewSpace(s), bind: make(map[*graph.Net]string)}
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
		if n.Global {
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

// eccFrom returns the eccentricity of pattern vertex from over the
// traversal that ignores fixed (global or bound) nets: the largest hop
// distance from it to any device or non-fixed net.  The region-localized
// Phase II engine keys on eccFrom(key): any instance whose key image is c
// lies entirely within that many hops of c through non-fixed vertices,
// because every pattern vertex is that close to the key through non-fixed
// vertices (checkConnected guarantees reachability) and the image of such
// a path is a same-length path through non-fixed main-graph vertices.  One
// BFS over the pattern, O(V+E); callers must not pass a fixed net.
func (p *pattern) eccFrom(from label.VID) int {
	size := p.space.Size()
	dist := make([]int, size)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]label.VID, 1, size)
	queue[0] = from
	dist[from] = 0
	far := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] > far {
			far = dist[u]
		}
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
	return far
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
