package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"strconv"

	"invarnetx/internal/signature"
)

// LoadProfile reads the profile file at path: its scope and sections, with
// Signatures left empty, and its signatures merged into a database of their
// own, in file order. It is LoadFile into a ProfileFile followed by a tuple
// parse and a signature.DB.Merge per signature — same schema, same checks,
// any malformed tuple rejecting the whole file (the tests keep that
// composition as its reference). The model and lifecycle sections, read once
// per file, decode by reflection over the store's scanner; the invariant
// pairs and the signatures, which repeat tens to thousands of times, in a
// direct loop over the scanner's tokens, each signature's tuple text packed
// straight into the database (signature.DB.MergeText).
func LoadProfile(path string) (ProfileFile, *signature.DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ProfileFile{}, nil, err
	}
	return decodeProfile(data)
}

func decodeProfile(data []byte) (ProfileFile, *signature.DB, error) {
	d := profileDecoder{s: &scanner{buf: data}, sigs: signature.NewDB(bytes.Count(data, []byte("<signature>")))}
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
	sigs *signature.DB
	n    int    // signatures read
	text []byte // character data of the scalar element being read
	// tuple is the text of the current signature's last <tuple>, parsed once
	// at </signature> as encoding/xml parses a string field's final value.
	tuple []byte
	// The last value read of each string: ip and type repeat on every entry
	// (usually the profile's own) and a problem on every signature labelled
	// for it, so consecutive entries share one string.
	last struct{ ip, workloadType, problem string }
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
	if err := CheckVersion(d.f.Version); err != nil {
		return err
	}
	d.last.ip, d.last.workloadType = d.f.IP, d.f.Type
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

// signature reads one four-tuple and merges it into d.sigs: a repeat of any
// leaf overwrites it, and the tuple text is parsed once, as the last value.
func (d *profileDecoder) signature() error {
	var problem, ip, workload string
	d.tuple = d.tuple[:0]
	err := d.children(func(name []byte) (err error) {
		switch string(name) {
		case "tuple":
			d.tuple, err = d.characters(d.tuple)
		case "problem":
			problem, err = d.scalar(&d.last.problem)
		case "ip":
			ip, err = d.scalar(&d.last.ip)
		case "type":
			workload, err = d.scalar(&d.last.workloadType)
		default:
			err = d.s.skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	if _, err := d.sigs.MergeText(workload, ip, problem, d.tuple); err != nil {
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
