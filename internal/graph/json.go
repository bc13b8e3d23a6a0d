package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// The JSON interchange format: a stable, explicit wire representation for
// tooling that wants circuits without parsing SPICE or Verilog.
//
//	{
//	  "name": "chip",
//	  "nets": [{"name": "y", "port": false, "global": false}, ...],
//	  "devices": [
//	    {"name": "MP1", "type": "pmos",
//	     "pins": [{"class": 0, "net": "y"}, ...]},
//	    ...
//	  ]
//	}
type jsonCircuit struct {
	Name    string       `json:"name"`
	Nets    []jsonNet    `json:"nets"`
	Devices []jsonDevice `json:"devices"`
}

type jsonNet struct {
	Name   string `json:"name"`
	Port   bool   `json:"port,omitempty"`
	Global bool   `json:"global,omitempty"`
}

type jsonDevice struct {
	Name string    `json:"name"`
	Type string    `json:"type"`
	Pins []jsonPin `json:"pins"`
}

type jsonPin struct {
	Class TermClass `json:"class"`
	Net   string    `json:"net"`
}

// EncodeJSON writes the circuit in the JSON interchange format.
func EncodeJSON(w io.Writer, c *Circuit) error {
	jc := jsonCircuit{
		Name:    c.Name,
		Nets:    make([]jsonNet, len(c.Nets)),
		Devices: make([]jsonDevice, len(c.Devices)),
	}
	for i, n := range c.Nets {
		jc.Nets[i] = jsonNet{Name: n.Name, Port: n.Port, Global: n.Global}
	}
	pins := make([]jsonPin, c.NumPins())
	for i, d := range c.Devices {
		jd := jsonDevice{Name: d.Name, Type: d.Type, Pins: pins[:len(d.Pins):len(d.Pins)]}
		pins = pins[len(d.Pins):]
		for pi, p := range d.Pins {
			jd.Pins[pi] = jsonPin{Class: p.Class, Net: p.Net.Name}
		}
		jc.Devices[i] = jd
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jc)
}

// DecodeJSON reads a circuit in the JSON interchange format, validating the
// structure as it builds.
func DecodeJSON(r io.Reader) (*Circuit, error) {
	var jc jsonCircuit
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return nil, fmt.Errorf("graph: decoding circuit JSON: %w", err)
	}
	c := New(jc.Name)
	for _, jn := range jc.Nets {
		if jn.Name == "" {
			return nil, fmt.Errorf("graph: JSON net with empty name")
		}
		n := c.AddNet(jn.Name)
		n.Port = jn.Port
		n.Global = jn.Global
	}
	// AddDevice copies its arguments into the device's pins, so one pair
	// of buffers serves every device.
	var classes []TermClass
	var nets []*Net
	for _, jd := range jc.Devices {
		classes, nets = classes[:0], nets[:0]
		for _, jp := range jd.Pins {
			n := c.NetByName(jp.Net)
			if n == nil {
				return nil, fmt.Errorf("graph: device %s references undeclared net %q", jd.Name, jp.Net)
			}
			classes = append(classes, jp.Class)
			nets = append(nets, n)
		}
		if _, err := c.AddDevice(jd.Name, jd.Type, classes, nets); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
