package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"strconv"

	"invarnetx/internal/signature"
)

// LoadProfile reads the profile file at path: its context and sections,
// with Signatures left empty, and its signatures merged, in file order, into
// the signature base of the context the root's type and ip name. It is the
// reflection decode of the file into a ProfileFile followed, per signature,
// by a check that the signature's ip and type are the root's, a tuple parse
// and a signature.DB.Merge — same schema, same checks, a signature of
// another context or a malformed tuple rejecting the whole file (the tests
// keep that composition as its reference). The model
// and lifecycle sections, read once per file, decode by reflection over the
// store's scanner; the invariant pairs and the signatures, which repeat tens
// to thousands of times, straight from the bytes when they are spelled as
// save writes them and in a direct loop over the scanner's tokens when not,
// each signature's tuple text packed straight into the database
// (signature.DB.MergeText).
func LoadProfile(path string) (ProfileFile, *signature.DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ProfileFile{}, nil, err
	}
	return decodeProfile(data)
}

func decodeProfile(data []byte) (ProfileFile, *signature.DB, error) {
	d := profileDecoder{s: &scanner{buf: data}}
	if err := d.file(); err != nil {
		return ProfileFile{}, nil, err
	}
	if _, err := d.s.next(); err != nil { // as in decode: nothing after the root
		return ProfileFile{}, nil, err
	}
	return d.f, d.sigs, nil
}

// profileDecoder walks a profile file's tokens the way encoding/xml walks
// them for ProfileFile: elements matched by name at their level, unknown
// elements skipped, a repeated scalar element overwriting the earlier one, a
// repeated section decoding into the same value, character data of a scalar
// concatenated around comments and child elements.
type profileDecoder struct {
	s    *scanner
	f    ProfileFile
	sigs *signature.DB // the root's context's, made once the root is read
	n    int           // signatures read
	text []byte        // character data of the scalar element being read
	// The text of the current signature's last <tuple>, <ip> and <type>,
	// read as encoding/xml reads a string field's final value: the tuple is
	// parsed once at </signature>, and ip and type are compared with the
	// root's without being made strings.
	tuple, ip, workloadType []byte
	// problem is the last problem read: a problem repeats on every
	// signature labelled for it, so consecutive entries share one string.
	problem string
}

func (d *profileDecoder) file() error {
	root, err := d.s.next()
	if err != nil {
		return err
	}
	if string(root.data) != "profile" {
		return fmt.Errorf("xmlstore: expected element type <profile> but have <%s>", root.data)
	}
	for _, a := range d.s.attrs {
		switch string(a.name) {
		case "version":
			if d.f.Version, err = parseInt(a.value); err != nil {
				return err
			}
		case "ip":
			d.f.IP = string(a.value)
		case "type":
			d.f.Type = string(a.value)
		}
	}
	if err := checkVersion(d.f.Version); err != nil {
		return err
	}
	d.sigs = signature.NewDB(d.f.Type, d.f.IP)
	return d.children(func(name []byte) error {
		switch string(name) {
		case "performance-model":
			return section(d.s, &d.f.Model)
		case "invariants":
			return d.invariants()
		case "lifecycle":
			return section(d.s, &d.f.Lifecycle)
		case "signature":
			return d.signature()
		}
		return d.s.skip()
	})
}

// section decodes the element s just opened into *v by reflection,
// allocating *v on first use as encoding/xml does for a pointer field.
func section[T any](s *scanner, v **T) error {
	if *v == nil {
		*v = new(T)
	}
	s.reopen = true
	return xml.NewTokenDecoder(s).Decode(*v)
}

// invariants reads an <invariants> section as encoding/xml reads it into
// InvariantFile: <metrics> an int that a repeat overwrites, every <pair>
// under every <matrix> appended, anything else skipped.
func (d *profileDecoder) invariants() error {
	if d.f.Invariants == nil {
		d.f.Invariants = new(InvariantFile)
	}
	inv := d.f.Invariants
	return d.children(func(name []byte) (err error) {
		switch string(name) {
		case "metrics":
			if d.text, err = d.characters(d.text); err == nil {
				inv.Metrics, err = parseInt(d.text)
			}
			return err
		case "matrix":
			if !d.s.closing {
				inv.Pairs = d.canonicalPairs(inv.Pairs)
			}
			return d.children(func(name []byte) error {
				if string(name) == "pair" {
					p, err := d.pair()
					if err != nil {
						return err
					}
					inv.Pairs = append(inv.Pairs, p)
				}
				return d.s.skip()
			})
		}
		return d.s.skip()
	})
}

// pair reads the attributes of the <pair> just opened; its content is left
// for the caller to skip.
func (d *profileDecoder) pair() (p invariantPair, err error) {
	for _, a := range d.s.attrs {
		switch string(a.name) {
		case "i":
			p.I, err = parseInt(a.value)
		case "j":
			p.J, err = parseInt(a.value)
		case "value":
			p.Value, err = parseFloat(a.value)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// parseInt and parseFloat read a number as encoding/xml reads one into an
// int or float64 field or attribute: no text at all is 0, anything else is
// trimmed of white space and must parse whole.
func parseInt(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	v, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	return int(v), err
}

func parseFloat(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
}

// signature reads one four-tuple and merges it into d.sigs. One spelled
// exactly as save writes it is read straight from the bytes
// (canonicalSignature); any other goes through the token loop from the same
// position, where a repeat of any leaf overwrites it and the tuple text is
// parsed once, as the last value.
func (d *profileDecoder) signature() error {
	if !d.s.closing {
		if leaf, n := canonicalSignature(d.s.buf[d.s.pos:]); n > 0 {
			d.s.pos += n
			d.s.pop()
			if string(leaf[1]) != d.problem {
				d.problem = string(leaf[1])
			}
			return d.merge(d.problem, leaf[0], leaf[2], leaf[3])
		}
	}
	var problem string
	d.tuple, d.ip, d.workloadType = d.tuple[:0], d.ip[:0], d.workloadType[:0]
	err := d.children(func(name []byte) (err error) {
		switch string(name) {
		case "tuple":
			d.tuple, err = d.characters(d.tuple)
		case "problem":
			problem, err = d.scalar(&d.problem)
		case "ip":
			d.ip, err = d.characters(d.ip)
		case "type":
			d.workloadType, err = d.characters(d.workloadType)
		default:
			err = d.s.skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.merge(problem, d.tuple, d.ip, d.workloadType)
}

// merge adds the signature just read to d.sigs. A signature whose ip or type
// is not the root's belongs to another context and is refused.
func (d *profileDecoder) merge(problem string, tuple, ip, workloadType []byte) error {
	if string(ip) != d.f.IP || string(workloadType) != d.f.Type {
		return fmt.Errorf("xmlstore: signature %d of %s@%s does not belong to the file's %s@%s", d.n, workloadType, ip, d.f.Type, d.f.IP)
	}
	if _, err := d.sigs.MergeText(problem, tuple); err != nil {
		return fmt.Errorf("xmlstore: signature %d: %w", d.n, err)
	}
	d.n++
	return nil
}

// children reads the content of the element just opened up to its end tag,
// handing each child element's name to child, which must consume that child.
func (d *profileDecoder) children(child func(name []byte) error) error {
	for {
		t, err := d.s.next()
		if err != nil {
			return err
		}
		switch t.kind {
		case tokStart:
			if err := child(t.data); err != nil {
				return err
			}
		case tokEnd:
			return nil
		}
	}
}

// characters reads the content of the scalar element just opened into
// buf, overwriting it, and returns it.
func (d *profileDecoder) characters(buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		t, err := d.s.next()
		if err != nil {
			return buf, err
		}
		switch t.kind {
		case tokText:
			buf = append(buf, t.data...)
		case tokStart:
			if err := d.s.skip(); err != nil {
				return buf, err
			}
		case tokEnd:
			return buf, nil
		}
	}
}

// scalar reads the content of the string element just opened; last is the
// previous value of the same field, returned again when it repeats.
func (d *profileDecoder) scalar(last *string) (string, error) {
	var err error
	if d.text, err = d.characters(d.text); err != nil {
		return "", err
	}
	if string(d.text) != *last {
		*last = string(d.text)
	}
	return *last, nil
}

// The direct path. save writes every repeated element the same way —
// encoding/xml's indentation, a pair's three attributes in field order, a
// signature's four leaves in field order — and a restore reads that spelling
// straight from the bytes instead of cutting ~18 tokens out of each element.
// A recogniser matches a whole element or nothing: on the first byte that
// differs it reports no match, the scanner stays where it was, and the token
// loop reads the element. The token loop thus stays the one reader of every
// other spelling and the reference the direct path is held to
// (checkAgainstStock, FuzzLoad).

// canonicalPairs appends the <pair> elements at the scanner's position that
// are spelled as save writes them, up to the first that is not.
func (d *profileDecoder) canonicalPairs(pairs []invariantPair) []invariantPair {
	for {
		p, n := canonicalPair(d.s.buf[d.s.pos:])
		if n == 0 {
			return pairs
		}
		pairs = append(pairs, p)
		d.s.pos += n
	}
}

// canonicalPair matches, at the start of b, white space and one
// <pair i="I" j="J" value="V"></pair> as encoding/xml writes it: I and J
// unsigned decimals with no leading zero, V a number literal parseFloat
// reads. It returns the pair and the length matched, 0 when b is spelled any
// other way.
func canonicalPair(b []byte) (p invariantPair, n int) {
	c := cursor{b: b, ok: true}
	c.indent()
	c.lit(`<pair i="`)
	p.I = c.decimal()
	c.lit(`" j="`)
	p.J = c.decimal()
	c.lit(`" value="`)
	value := c.number()
	c.lit(`"></pair>`)
	if !c.ok || len(value) == 0 {
		return p, 0
	}
	var err error
	if p.Value, err = parseFloat(value); err != nil {
		return p, 0
	}
	return p, c.i
}

// sigLeaves are a signature's children, in the order save writes them.
var sigLeaves = [...]struct{ open, close string }{
	{"<tuple>", "</tuple>"}, {"<problem>", "</problem>"}, {"<ip>", "</ip>"}, {"<type>", "</type>"},
}

// canonicalSignature matches, at the start of b, the content and end tag of
// a <signature> just opened, as save writes them: each of the four leaves of
// sigLeaves in order after white space, holding plain text (classPlain: no
// markup, quote, entity, \r or non-ASCII byte, so nothing the scanner would
// rewrite), then white space and </signature>. It returns the texts of
// tuple, problem, ip and type, aliasing b, and the length matched, 0 when b
// is spelled any other way.
func canonicalSignature(b []byte) (leaf [4][]byte, n int) {
	c := cursor{b: b, ok: true}
	for k, tag := range sigLeaves {
		c.indent()
		c.lit(tag.open)
		leaf[k] = c.plain()
		c.lit(tag.close)
	}
	c.indent()
	c.lit("</signature>")
	if !c.ok {
		return leaf, 0
	}
	return leaf, c.i
}

// cursor walks a recogniser over b. Once a step fails, ok stays false, so a
// recogniser checks it once, at the end. The steps after a failure still
// scan, but no further than the next '<' or quote, which the token loop
// reads anyway.
type cursor struct {
	b  []byte
	i  int
	ok bool
}

// indent skips white space as save indents: space, tab or newline.
func (c *cursor) indent() {
	b, i := c.b, c.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t') {
		i++
	}
	c.i = i
}

// lit matches s.
func (c *cursor) lit(s string) {
	c.ok = c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s
	if c.ok {
		c.i += len(s)
	}
}

// plain matches a run of plain bytes, possibly empty, and returns it.
func (c *cursor) plain() []byte {
	b, start, i := c.b, c.i, c.i
	for i < len(b) && class[b[i]]&classPlain != 0 {
		i++
	}
	c.i = i
	return b[start:i]
}

// number matches a run of the bytes of a decimal number literal — digits,
// point, exponent and signs — possibly empty, and returns it.
func (c *cursor) number() []byte {
	b, start, i := c.b, c.i, c.i
	for i < len(b) && ('0' <= b[i] && b[i] <= '9' || b[i] == '.' || b[i] == 'e' || b[i] == 'E' || b[i] == '+' || b[i] == '-') {
		i++
	}
	c.i = i
	return b[start:i]
}

// decimal matches an index as save writes one: an unsigned decimal with no
// leading zero, at most nine digits so that it fits any int.
func (c *cursor) decimal() (v int) {
	b, start, i := c.b, c.i, c.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' && i-start < 10 {
		v = v*10 + int(b[i]-'0')
		i++
	}
	c.i = i
	n := i - start
	c.ok = c.ok && n > 0 && n <= 9 && (n == 1 || b[start] != '0')
	return v
}
