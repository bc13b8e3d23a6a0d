// Package netlist reads and writes circuits in a SPICE-like netlist format
// and flattens hierarchical descriptions into the flat circuit graphs the
// matcher operates on.
//
// Supported syntax (a pragmatic SPICE subset):
//
//   - comment                     full-line comment ('*' or ';')
//     .GLOBAL VDD GND               declare special-signal nets
//     .SUBCKT NAME P1 P2 ...        begin a subcircuit definition
//     .ENDS [NAME]                  end a subcircuit definition
//     Mname D G S [B] model         MOS transistor (3- or 4-terminal)
//     Rname A B [value]             resistor
//     Cname A B [value]             capacitor
//     Dname A C [model]             diode
//     Xname n1 n2 ... SUBNAME       subcircuit instance (ports positional)
//   - ...                         continuation of the previous card
//
// Keywords and element letters are case-insensitive; net, device, and
// subcircuit names are case-sensitive.  MOS model names starting with "p"
// ("pmos", "pfet", "p") map to device type pmos, otherwise nmos; other
// element values are accepted and ignored (the graph model is unweighted).
//
// Parsed names share the source text: every name in a File except the
// .SUBCKT names is a substring of the string read, and so is every device
// and net name a main circuit takes unchanged (all of a flat netlist's).
// A main circuit therefore keeps its whole source text alive.  .SUBCKT
// names and patterns copy theirs, because callers keep them for long
// (pattern caches) and may select a small cell from a large source.  A
// card's Nets and a .SUBCKT's Ports are windows of an arena of fields
// shared by many cards, which stays alive while any of them is held.
package netlist

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Card is one parsed element or instance line.
type Card struct {
	// Line is the 1-based source line for diagnostics.
	Line int
	// Kind is the element letter, upper-cased: 'M', 'R', 'C', 'D', or 'X'.
	Kind byte
	// Name is the full element name, e.g. "M1" or "Xadd0".
	Name string
	// Nets lists the positional net connections.
	Nets []string
	// Ref is the model (for 'M'/'D') or subcircuit name (for 'X'); empty
	// when the card had no trailing name.
	Ref string
}

// Subckt is a parsed .SUBCKT definition.
type Subckt struct {
	Name  string
	Ports []string
	Cards []Card
}

// File is a parsed netlist: subcircuit definitions, top-level cards, and
// global net declarations.
type File struct {
	Subckts map[string]*Subckt
	Top     []Card
	Globals []string
}

// Parse reads a netlist whole and parses it as ParseString does.  name is
// used in error messages.
func Parse(r io.Reader, name string) (*File, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return ParseString(string(src), name)
}

// ParseString parses a netlist held in a string.  name is used in error
// messages.  Names in the result are substrings of src, except .SUBCKT
// names (see the package comment).
func ParseString(src, name string) (*File, error) {
	r := reader{name: name, f: &File{Subckts: make(map[string]*Subckt)}, src: src}
	return r.parse()
}

// reader scans a source once.  Fields are substrings of src collected in a
// chunked arena: the logical line being assembled (a card plus its
// continuations) is fields[mark:], and each card's Nets is a capped window
// of it.  Cards go to one arena sized from the line count, so it never
// grows; each .SUBCKT's Cards is the window of its definition, and Top is
// the window of the top-level cards when no definition splits them.
type reader struct {
	name   string
	f      *File
	src    string
	pos    int // start of the next physical line
	lineAt int // start of the line being scanned

	fields []string
	mark   int
	ln     int // line number of the logical line in fields[mark:], 0 before the first

	cards    []Card
	cur      *Subckt // the open .SUBCKT, or nil
	curStart int     // cur's first card in cards
	topRuns  []int   // [start, end) pairs of top-level runs in cards
}

// Byte classes for the field scanner.  Bytes from utf8.RuneSelf up start a
// rune that is decoded and tested with unicode.IsSpace, which is how
// strings.Fields and strings.TrimSpace see them.
const (
	clsWord = iota
	clsSpace
	clsComment // ';' ends the line's content
	clsRune
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = clsSpace
	}
	t[';'] = clsComment
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = clsRune
	}
	return t
}()

// fieldChunk caps the fields arena's chunk length.
const fieldChunk = 4096

func (r *reader) parse() (*File, error) {
	for lineNo := 1; r.pos < len(r.src); lineNo++ {
		r.lineAt = r.pos
		line := r.src[r.pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			r.pos += i + 1
		} else {
			r.pos = len(r.src)
		}
		i := skipSpace(line, 0)
		if i == len(line) || line[i] == ';' || line[i] == '*' {
			continue
		}
		if line[i] == '+' {
			if r.ln == 0 {
				return nil, fmt.Errorf("%s:%d: continuation with no preceding card", r.name, lineNo)
			}
			r.scanFields(line, i+1)
			continue
		}
		if err := r.flush(); err != nil {
			return nil, err
		}
		r.ln = lineNo
		r.scanFields(line, i)
	}
	if err := r.flush(); err != nil {
		return nil, err
	}
	if r.cur != nil {
		return nil, fmt.Errorf("%s: .SUBCKT %s not closed by .ENDS", r.name, r.cur.Name)
	}
	r.f.Top = r.top()
	return r.f, nil
}

// skipSpace returns the index of the first non-space rune of s at or after
// i, or len(s).
func skipSpace(s string, i int) int {
	for i < len(s) {
		switch byteClass[s[i]] {
		case clsSpace:
			i++
		case clsRune:
			c, w := utf8.DecodeRuneInString(s[i:])
			if !unicode.IsSpace(c) {
				return i
			}
			i += w
		default:
			return i
		}
	}
	return i
}

// scanFields appends the fields of s from i up to a ';' to the arena.
func (r *reader) scanFields(s string, i int) {
	for {
		i = skipSpace(s, i)
		if i == len(s) || s[i] == ';' {
			return
		}
		start := i
	word:
		for i < len(s) {
			switch byteClass[s[i]] {
			case clsWord:
				i++
			case clsRune:
				c, w := utf8.DecodeRuneInString(s[i:])
				if unicode.IsSpace(c) {
					break word
				}
				i += w
			default:
				break word
			}
		}
		r.push(s[start:i], r.lineAt+start)
	}
}

// push appends the field that starts at offset at in the source, moving
// the logical line being assembled to a new chunk when the current one is
// full.  A new chunk has room for the open line twice over, or for up to
// fieldChunk more fields but no more than the rest of the source holds.
func (r *reader) push(field string, at int) {
	if len(r.fields) == cap(r.fields) {
		open := r.fields[r.mark:]
		room := max(len(open), min(fieldChunk, (len(r.src)-at)/2+1))
		r.fields = append(make([]string, 0, len(open)+room), open...)
		r.mark = 0
	}
	r.fields = append(r.fields, field)
}

// flush turns the logical line in fields[mark:] into a directive or a card.
func (r *reader) flush() error {
	if r.mark == len(r.fields) {
		return nil
	}
	fields := r.fields[r.mark:len(r.fields):len(r.fields)]
	r.mark = len(r.fields)
	ln, f, name := r.ln, r.f, r.name
	if fields[0][0] != '.' {
		card, err := parseCard(fields, ln, name)
		if err != nil {
			return err
		}
		r.addCard(card)
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case ".GLOBAL":
		f.Globals = append(f.Globals, fields[1:]...)
	case ".SUBCKT":
		if r.cur != nil {
			return fmt.Errorf("%s:%d: nested .SUBCKT", name, ln)
		}
		if len(fields) < 2 {
			return fmt.Errorf("%s:%d: .SUBCKT needs a name", name, ln)
		}
		if _, dup := f.Subckts[fields[1]]; dup {
			return fmt.Errorf("%s:%d: duplicate .SUBCKT %s", name, ln, fields[1])
		}
		// The name is copied: callers key pattern caches and stores by
		// it, and a substring would keep the whole source alive.
		r.cur = &Subckt{Name: strings.Clone(fields[1]), Ports: fields[2:]}
		r.curStart = len(r.cards)
	case ".ENDS":
		if r.cur == nil {
			return fmt.Errorf("%s:%d: .ENDS outside .SUBCKT", name, ln)
		}
		if len(fields) > 1 && fields[1] != r.cur.Name {
			return fmt.Errorf("%s:%d: .ENDS %s does not close .SUBCKT %s", name, ln, fields[1], r.cur.Name)
		}
		if end := len(r.cards); end > r.curStart {
			r.cur.Cards = r.cards[r.curStart:end:end]
		}
		f.Subckts[r.cur.Name] = r.cur
		r.cur = nil
	case ".END":
		// Accepted and ignored.
	default:
		return fmt.Errorf("%s:%d: unsupported directive %s", name, ln, fields[0])
	}
	return nil
}

// addCard appends a card to the open .SUBCKT or to the top level.  The
// arena has room for this card, the logical line already read after it,
// and one card per line still unread, so it is allocated once.
func (r *reader) addCard(c Card) {
	if r.cards == nil {
		r.cards = make([]Card, 0, strings.Count(r.src[r.pos:], "\n")+3)
	}
	if r.cur == nil {
		if n := len(r.topRuns); n > 0 && r.topRuns[n-1] == len(r.cards) {
			r.topRuns[n-1]++
		} else {
			r.topRuns = append(r.topRuns, len(r.cards), len(r.cards)+1)
		}
	}
	r.cards = append(r.cards, c)
}

// top returns the top-level cards: a window of the arena when they form
// one run, else a copy of every run in order.
func (r *reader) top() []Card {
	switch len(r.topRuns) {
	case 0:
		return nil
	case 2:
		return r.cards[r.topRuns[0]:r.topRuns[1]:r.topRuns[1]]
	}
	n := 0
	for i := 0; i < len(r.topRuns); i += 2 {
		n += r.topRuns[i+1] - r.topRuns[i]
	}
	top := make([]Card, 0, n)
	for i := 0; i < len(r.topRuns); i += 2 {
		top = append(top, r.cards[r.topRuns[i]:r.topRuns[i+1]]...)
	}
	return top
}

func parseCard(fields []string, ln int, src string) (Card, error) {
	kind := upperByte(fields[0][0])
	c := Card{Line: ln, Kind: kind, Name: fields[0]}
	args := fields[1:]
	switch kind {
	case 'M':
		// Mname D G S [B] model — the model is mandatory so we can tell the
		// 3- and 4-terminal forms apart.
		switch len(args) {
		case 4:
			c.Nets, c.Ref = args[:3], args[3]
		case 5:
			c.Nets, c.Ref = args[:4], args[4]
		default:
			return c, fmt.Errorf("%s:%d: %s: MOS card needs 3 or 4 nets plus a model", src, ln, fields[0])
		}
	case 'R', 'C':
		if len(args) < 2 || len(args) > 3 {
			return c, fmt.Errorf("%s:%d: %s: needs 2 nets and an optional value", src, ln, fields[0])
		}
		c.Nets = args[:2]
	case 'D':
		if len(args) < 2 || len(args) > 3 {
			return c, fmt.Errorf("%s:%d: %s: needs 2 nets and an optional model", src, ln, fields[0])
		}
		c.Nets = args[:2]
		if len(args) == 3 {
			c.Ref = args[2]
		}
	case 'X':
		if len(args) < 2 {
			return c, fmt.Errorf("%s:%d: %s: instance needs nets and a subcircuit name", src, ln, fields[0])
		}
		c.Nets, c.Ref = args[:len(args)-1], args[len(args)-1]
	default:
		return c, fmt.Errorf("%s:%d: unsupported element %q", src, ln, fields[0])
	}
	return c, nil
}

func upperByte(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// MOSType maps a SPICE MOS model name to the graph device type: models
// whose lower-cased name starts with 'p' become "pmos", everything else
// "nmos".
func MOSType(model string) string {
	// 'P' is the only rune other than 'p' that lower-cases to 'p', so the
	// first byte decides without lower-casing the whole name.
	if model != "" && (model[0] == 'p' || model[0] == 'P') {
		return "pmos"
	}
	return "nmos"
}
