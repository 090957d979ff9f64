// JSON request decoder: one pass from a POST /v1/ingest, /v1/diagnose or
// /v1/signatures body to its wire request and a pooled ingestBatch, without
// reflection or per-sample allocation. DESIGN.md ("Columnar admission")
// states its grammar contract.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"invarnetx/internal/metrics"
)

// The JSON names of the queued requests' and Sample's fields, by key index.
// Each request type declares its own subset of requestFields.
var (
	requestFields = []string{"workload", "node", "samples", "wait", "problem"}
	sampleFields  = []string{"metrics", "cpi", "valid", "cpiValid"}
)

// Indices into requestFields.
const (
	keyWorkload = iota
	keyNode
	keySamples
	keyWait
	keyProblem
)

// decodeIngestJSON decodes one JSON body into req — an *IngestRequest,
// *DiagnoseRequest or *SignatureRequest, whose keys it allows — and its
// samples into b, applying maskValue. It accepts what encoding/json
// (DisallowUnknownFields), the request's required fields and, for samples
// sent, validateSamples accept, with their errors, but refuses a field set
// twice in one object where encoding/json merges. FuzzIngestJSON holds it to
// that reference. Samples are required on ingest and optional otherwise
// (null is absent, [] is an empty batch); b.n is 0 when none were sent. req's
// Samples field is left alone, and b's columns are filled only once the
// whole body is accounted for.
func decodeIngestJSON(body []byte, req any, b *ingestBatch) error {
	var workload, node, problem *string
	var wait *bool
	allowed := uint8(1<<keyWorkload | 1<<keyNode | 1<<keySamples)
	wantSamples := false // a non-empty batch: required, or sent
	switch r := req.(type) {
	case *IngestRequest:
		workload, node, wantSamples = &r.Workload, &r.Node, true
	case *DiagnoseRequest:
		workload, node, wait = &r.Workload, &r.Node, &r.Wait
		allowed |= 1 << keyWait
	case *SignatureRequest:
		workload, node, problem = &r.Workload, &r.Node, &r.Problem
		allowed |= 1 << keyProblem
	}
	d := jsonScanner{buf: body}
	n := 0
	var verr error // the first sample validateSamples would refuse
	var seen uint8
	for k := 0; d.next('{', '}', k); k++ {
		switch d.key(requestFields, allowed, &seen) {
		case keyWorkload:
			*workload = d.identity()
		case keyNode:
			*node = d.identity()
		case keySamples:
			if !d.null() {
				wantSamples = true
				n, verr = d.samples(b)
			}
		case keyWait:
			*wait = d.word() == 't'
		case keyProblem:
			*problem = d.identity()
		}
	}
	switch {
	case d.err != nil:
		return d.err
	case problem != nil && (*workload == "" || *node == "" || *problem == ""):
		return errNoLabel
	case *workload == "" || *node == "":
		return errNoIdentity
	case verr != nil:
		return verr
	case wantSamples && n == 0:
		return errEmptyBatch
	}
	b.fromRows(n)
	return nil
}

// samples decodes the samples array row-major into b.rows and b.rowOK and
// returns its length and first validation failure. Samples after a failure
// are still read (a later syntax error outranks it) into one shared row.
func (d *jsonScanner) samples(b *ingestBatch) (n int, verr error) {
	b.rows, b.rowOK = b.rows[:0], b.rowOK[:0]
	for n = 0; d.next('[', ']', n); n++ {
		if verr == nil {
			b.rows = slices.Grow(b.rows, rowStride)[:len(b.rows)+rowStride]
			b.rowOK = slices.Grow(b.rowOK, rowStride)[:len(b.rowOK)+rowStride]
		}
		row, ok := b.rows[len(b.rows)-rowStride:], b.rowOK[len(b.rowOK)-rowStride:]
		clear(row)
		for k := range ok {
			ok[k] = true
		}
		if err := d.sample(n, row, ok); verr == nil {
			verr = err
		}
	}
	return n, verr
}

// sample decodes samples[i] into row and ok, zeroed and all-valid on entry,
// and returns validateSamples' refusal of it. A null reads as the zero value.
func (d *jsonScanner) sample(i int, row []float64, ok []bool) error {
	nm, nv := 0, -1 // metric count; mask length, -1 while absent
	var seen uint8
	for k := 0; d.next('{', '}', k); k++ {
		switch d.key(sampleFields, 1<<len(sampleFields)-1, &seen) {
		case 0:
			for ; d.next('[', ']', nm); nm++ {
				if v := d.float(); nm < metrics.Count {
					row[nm] = v
				}
			}
		case 1:
			row[metrics.Count] = d.float()
		case 2:
			if d.null() {
				break
			}
			for nv = 0; d.next('[', ']', nv); nv++ {
				if d.word() != 't' && nv < metrics.Count {
					ok[nv] = false // false, or null: the zero bool
				}
			}
		case 3:
			if d.word() == 'f' {
				ok[metrics.Count] = false
			}
		}
	}
	if nm != metrics.Count {
		return metricCountError(i, nm)
	}
	if nv >= 0 && nv != metrics.Count {
		return maskLengthError(i, nv)
	}
	return nil
}

// jsonScanner reads a JSON body by offset; a failure sticks and ends input.
type jsonScanner struct {
	buf []byte
	i   int
	err error
}

func (d *jsonScanner) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("decoding request: "+format, args...)
	}
	d.i = len(d.buf)
}

// peek skips whitespace and returns the next byte, 0 at the end of input.
func (d *jsonScanner) peek() byte {
	for ; d.i < len(d.buf); d.i++ {
		if c := d.buf[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// next consumes the delimiter before entry k of an array or object (open
// before entry 0, a comma after) and reports whether entry k follows, or
// consumes close and reports false: for k := 0; d.next(o, c, k); k++ {...}.
// A null reads as the empty container, Decode's zero value for all of them
// here but a mask, whose null (absent, not empty) is checked before.
func (d *jsonScanner) next(open, close byte, k int) bool {
	c, want := d.peek(), open
	if k > 0 {
		want = ','
	}
	switch {
	case k == 0 && c == 'n':
		d.word()
		return false
	case c == want:
		if d.i++; k > 0 || d.peek() != close {
			return true
		}
	case k == 0 || c != close:
		d.fail("want '%c' or '%c'", want, close)
		return false
	}
	d.i++ // close
	return false
}

// key reads a member's key and colon and returns the field it names, matched
// exactly, then by bytes.EqualFold, as Decode does; -1 after failing on a
// key naming no field of allowed (in Decode's words) or a field this object
// already set (seen).
func (d *jsonScanner) key(fields []string, allowed uint8, seen *uint8) int {
	if d.peek() != '"' {
		d.fail("want an object key")
		return -1
	}
	k := d.str()
	f := slices.Index(fields, string(k))
	if f < 0 {
		f = slices.IndexFunc(fields, func(name string) bool { return bytes.EqualFold(k, []byte(name)) })
	}
	switch {
	case d.err != nil:
	case f < 0 || allowed&(1<<f) == 0:
		d.fail("json: unknown field %q", k)
	case *seen&(1<<f) != 0:
		d.fail("repeated key %q", k)
	case d.peek() != ':':
		d.fail("want ':'")
	default:
		*seen |= 1 << f
		d.i++
		return f
	}
	return -1
}

// str reads a string token's contents: its own bytes when it is printable
// ASCII without escapes, else encoding/json's unquoting (the rare path).
func (d *jsonScanner) str() []byte {
	start, plain := d.i, true
	for i := start + 1; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			if d.i = i + 1; plain {
				return d.buf[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(d.buf[start:d.i], &s); err != nil {
				d.fail("%v", err)
			}
			return []byte(s)
		case c == '\\':
			i++
			plain = false
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	d.fail("unterminated string")
	return nil
}

// identity reads a string field; null leaves it empty.
func (d *jsonScanner) identity() string {
	if d.peek() == '"' {
		return string(d.str())
	} else if !d.null() {
		d.fail("want a string")
	}
	return ""
}

// float reads a number (null: 0) as Decode does: the JSON grammar, then the
// bits strconv.ParseFloat gives the literal.
func (d *jsonScanner) float() float64 {
	if d.null() {
		return 0
	}
	v, end, err := number(d.buf, d.i)
	switch {
	case end < 0:
		d.fail("want a number")
	case err != nil:
		d.fail("%v", err)
	default:
		d.i = end
	}
	return v
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number reads the JSON number starting at buf[i] in one walk, which checks
// the grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and accumulates
// the digits into a mantissa m, and returns its value, its end, and
// ParseFloat's error; end is -1 when the grammar refuses it. A literal with no
// exponent, at most 19 significant digits (so m cannot wrap), m below 2^53
// and k <= 22 fraction digits is m / 10^k: one division of two exactly
// represented operands, correctly rounded as ParseFloat is, so the same bits
// (Clinger's fast path, taken to 2^53 where strconv's own stops at 2^52).
// Any other literal goes to ParseFloat.
func number(buf []byte, i int) (v float64, end int, err error) {
	start := i
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	j, m, sig := digits(buf, i, 0, 0)
	if j == i || buf[i] == '0' && j > i+1 {
		return 0, -1, nil // no integer digit, or a leading zero
	}
	k := 0 // fraction digits
	if j < len(buf) && buf[j] == '.' {
		f := j + 1
		if j, m, sig = digits(buf, f, m, sig); j == f {
			return 0, -1, nil
		}
		k = j - f
	}
	if j < len(buf) && (buf[j] == 'e' || buf[j] == 'E') {
		e := j + 1
		if e < len(buf) && (buf[e] == '+' || buf[e] == '-') {
			e++
		}
		if j, _, _ = digits(buf, e, 0, 0); j == e {
			return 0, -1, nil
		}
	} else if sig <= 19 && m < 1<<53 && k < len(pow10) {
		if v = float64(m) / pow10[k]; buf[start] == '-' {
			v = -v
		}
		return v, j, nil
	}
	v, err = strconv.ParseFloat(string(buf[start:j]), 64)
	return v, j, err
}

// digits reads the decimal digits from buf[j] on into the mantissa m, counting
// in sig those from the first non-zero one on (so m has not wrapped while
// sig <= 19), and returns their end and the new m and sig.
func digits(buf []byte, j int, m uint64, sig int) (int, uint64, int) {
	for ; j < len(buf) && buf[j]-'0' <= 9; j++ {
		c := uint64(buf[j] - '0')
		if m|c != 0 {
			sig++
		}
		m = m*10 + c
	}
	return j, m, sig
}

// null consumes a null literal if one comes next.
func (d *jsonScanner) null() bool {
	return d.peek() == 'n' && d.word() == 'n'
}

// word consumes the literal true, false or null that comes next and returns
// its first byte.
func (d *jsonScanner) word() byte {
	c := d.peek()
	for _, w := range [...]string{"true", "false", "null"} {
		if c == w[0] && string(d.buf[d.i:min(d.i+len(w), len(d.buf))]) == w {
			d.i += len(w)
			return c
		}
	}
	d.fail("want true, false or null")
	return 0
}
