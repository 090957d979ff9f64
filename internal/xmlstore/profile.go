package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"strconv"
	"strings"

	"invarnetx/internal/signature"
)

// LoadProfile reads the profile file at path: its scope and sections, with
// Signatures left empty, and its signatures parsed into entries in file
// order. It is LoadFile into a ProfileFile followed by a tuple parse per
// signature — same schema, same checks, any malformed tuple rejecting the
// whole file (the tests keep that composition as its reference). The model,
// invariant and lifecycle sections decode by reflection over the store's
// scanner; the signatures, the one element that repeats thousands of times
// and where reflection dominates a restore, in a direct loop over the
// scanner's tokens.
func LoadProfile(path string) (ProfileFile, []signature.Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ProfileFile{}, nil, err
	}
	return decodeProfile(data)
}

func decodeProfile(data []byte) (ProfileFile, []signature.Entry, error) {
	d := profileDecoder{s: &scanner{buf: data}}
	d.entries = make([]signature.Entry, 0, bytes.Count(data, []byte("<signature>")))
	if err := d.file(); err != nil {
		return ProfileFile{}, nil, err
	}
	if _, err := d.s.next(); err != nil { // as in decode: nothing after the root
		return ProfileFile{}, nil, err
	}
	return d.f, d.entries, nil
}

// profileDecoder walks a profile file's tokens the way encoding/xml walks
// them for ProfileFile: elements matched by name at their level, unknown
// elements skipped, a repeated scalar element overwriting the earlier one, a
// repeated section decoding into the same value, character data of a scalar
// concatenated around comments and child elements.
type profileDecoder struct {
	s       *scanner
	f       ProfileFile
	entries []signature.Entry
	text    []byte // character data of the scalar element being read
	// The last value read of each scalar: ip and type repeat on every entry
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
			if len(a.value) > 0 {
				if d.f.Version, err = strconv.Atoi(strings.TrimSpace(string(a.value))); err != nil {
					return err
				}
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
			return section(d.s, &d.f.Invariants)
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

func (d *profileDecoder) signature() error {
	i := len(d.entries)
	d.entries = append(d.entries, signature.Entry{Tuple: signature.Tuple{}})
	return d.children(func(name []byte) (err error) {
		e := &d.entries[i]
		switch string(name) {
		case "tuple":
			if err = d.characters(); err == nil {
				if e.Tuple, err = signature.ParseTuple(d.text); err != nil {
					err = fmt.Errorf("xmlstore: signature %d: %w", i, err)
				}
			}
		case "problem":
			e.Problem, err = d.scalar(&d.last.problem)
		case "ip":
			e.IP, err = d.scalar(&d.last.ip)
		case "type":
			e.Workload, err = d.scalar(&d.last.workloadType)
		default:
			err = d.s.skip()
		}
		return err
	})
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

// characters reads the content of the scalar element just opened into d.text.
func (d *profileDecoder) characters() error {
	d.text = d.text[:0]
	for {
		t, err := d.s.next()
		if err != nil {
			return err
		}
		switch t.kind {
		case tokText:
			d.text = append(d.text, t.data...)
		case tokStart:
			if err := d.s.skip(); err != nil {
				return err
			}
		case tokEnd:
			return nil
		}
	}
}

// scalar reads the content of the string element just opened; last is the
// previous value of the same field, returned again when it repeats.
func (d *profileDecoder) scalar(last *string) (string, error) {
	if err := d.characters(); err != nil {
		return "", err
	}
	if string(d.text) != *last {
		*last = string(d.text)
	}
	return *last, nil
}
