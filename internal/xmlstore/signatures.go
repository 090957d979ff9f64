package xmlstore

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"invarnetx/internal/signature"
)

// LoadSignatureFile reads the signature file at path: the profile scope it
// was saved under and its entries in file order. It is LoadFile into a
// SignatureFile followed by a tuple parse per entry — same schema, same
// checks, any malformed tuple rejecting the whole file (the tests keep that
// composition as its reference) — done in a direct loop over the
// scanner's tokens, because a signature file is the one store kind whose
// element repeats thousands of times and reflection dominates reading it.
func LoadSignatureFile(path string) (ip, workloadType string, entries []signature.Entry, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", nil, err
	}
	return decodeSignatures(data)
}

func decodeSignatures(data []byte) (ip, workloadType string, entries []signature.Entry, err error) {
	d := signatureDecoder{s: &scanner{buf: data}}
	d.entries = make([]signature.Entry, 0, bytes.Count(data, []byte("<signature>")))
	if err := d.file(); err != nil {
		return "", "", nil, err
	}
	if _, err := d.s.next(); err != nil { // as in decode: nothing after the root
		return "", "", nil, err
	}
	return d.ip, d.workloadType, d.entries, nil
}

// signatureDecoder walks a signature file's tokens the way encoding/xml
// walks them for SignatureFile: elements matched by name at their level,
// unknown elements skipped, a repeated scalar element overwriting the
// earlier one, character data of a scalar concatenated around comments and
// child elements.
type signatureDecoder struct {
	s                *scanner
	ip, workloadType string
	entries          []signature.Entry
	text             []byte // character data of the scalar element being read
	// The last value read of each scalar: ip and type repeat on every entry
	// and a problem on every signature labelled for it, so consecutive
	// entries share one string.
	last struct{ ip, workloadType, problem string }
}

func (d *signatureDecoder) file() error {
	root, err := d.s.next()
	if err != nil {
		return err
	}
	if string(root.data) != "signature-database" {
		return fmt.Errorf("xmlstore: expected element type <signature-database> but have <%s>", root.data)
	}
	version := 0
	for _, a := range d.s.attrs {
		if string(a.name) == "version" && len(a.value) > 0 {
			if version, err = strconv.Atoi(strings.TrimSpace(string(a.value))); err != nil {
				return err
			}
		}
	}
	if err := checkVersion(version); err != nil {
		return err
	}
	return d.children(func(name []byte) (err error) {
		switch string(name) {
		case "ip":
			d.ip, err = d.scalar(&d.last.ip)
		case "type":
			d.workloadType, err = d.scalar(&d.last.workloadType)
		case "signature":
			err = d.signature()
		default:
			err = d.s.skip()
		}
		return err
	})
}

func (d *signatureDecoder) signature() error {
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
func (d *signatureDecoder) children(child func(name []byte) error) error {
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
func (d *signatureDecoder) characters() error {
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
func (d *signatureDecoder) scalar(last *string) (string, error) {
	if err := d.characters(); err != nil {
		return "", err
	}
	if string(d.text) != *last {
		*last = string(d.text)
	}
	return *last, nil
}
