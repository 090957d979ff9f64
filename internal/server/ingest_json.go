// JSON request decoder: one pass from a POST /v1/ingest, /v1/diagnose or
// /v1/signatures body to its wire request and a pooled ingestBatch, without
// reflection or per-sample allocation. DESIGN.md ("Columnar admission")
// states its grammar contract.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/bits"
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

// number reads the JSON number starting at buf[i] and returns its value, its
// end, and ParseFloat's error; end is -1 when the grammar refuses it.
// numberWalk converts the literal itself where it can; any other goes to
// strconv.ParseFloat on the slice the walk delimited.
func number(buf []byte, i int) (v float64, end int, err error) {
	v, end, done := numberWalk(buf, i)
	if end >= 0 && !done {
		v, err = strconv.ParseFloat(string(buf[i:end]), 64)
	}
	return v, end, err
}

// numberWalk checks the literal at buf[i] against the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? in one walk, which
// accumulates its digits into a mantissa m, counts its k fraction digits and
// reads its exponent x, and returns its end (-1 when the grammar refuses it).
// A literal with at most 19 significant digits (so m cannot wrap) and an
// exponent of at most 4 significant digits (so x is the exponent strconv
// reads, which stops accumulating past 10 000) goes to eiselLemire at the
// power x − k; when the step decides, numberWalk returns its value and done.
// That value is the correctly rounded one, so it has the bits ParseFloat
// gives the literal.
func numberWalk(buf []byte, i int) (v float64, end int, done bool) {
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	j, m, sig := digits(buf, i, 0, 0)
	if j == i || buf[i] == '0' && j > i+1 {
		return 0, -1, false // no integer digit, or a leading zero
	}
	q := 0 // the power of ten that scales m: x - k
	if j < len(buf) && buf[j] == '.' {
		f := j + 1
		if j, m, sig = digits(buf, f, m, sig); j == f {
			return 0, -1, false
		}
		q = f - j
	}
	if j < len(buf) && (buf[j] == 'e' || buf[j] == 'E') {
		e := j + 1
		xneg := e < len(buf) && buf[e] == '-'
		if xneg || e < len(buf) && buf[e] == '+' {
			e++
		}
		x, xsig := uint64(0), 0
		if j, x, xsig = digits(buf, e, 0, 0); j == e {
			return 0, -1, false
		} else if xsig > 4 {
			return 0, j, false
		}
		if xneg {
			q -= int(x)
		} else {
			q += int(x)
		}
	}
	if sig > 19 {
		return 0, j, false
	}
	v, done = eiselLemire(m, q, neg)
	return v, j, done
}

// digits reads the decimal digits from buf[j] on into the mantissa m and
// returns their end, the new m, and sig plus the count of digits read from
// the first one that leaves m non-zero (leading zeros count for nothing, so m
// has not wrapped while sig <= 19). It reads eight bytes at a time while all
// eight are digits, one 64-bit load, check and multiply per eight, then the
// rest byte by byte.
func digits(buf []byte, j int, m uint64, sig int) (int, uint64, int) {
	if m == 0 {
		for j < len(buf) && buf[j] == '0' {
			j++
		}
	}
	s := j
	for ; j+8 <= len(buf); j += 8 {
		b := binary.LittleEndian.Uint64(buf[j:])
		// A byte below '0' borrows into its top bit when '0' is subtracted,
		// one above '9' carries into it when 0x46 is added (or already has
		// it, which the subtraction keeps); the lowest such byte sees no
		// carry or borrow from below.
		if ((b+0x4646464646464646)|(b-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		b -= 0x3030303030303030
		b = b*10 + b>>8 // two-digit values in bytes 0, 2, 4 and 6
		b = ((b&0x000000FF000000FF)*(100+1000000<<32) + (b>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		m = m*100000000 + b
	}
	for ; j < len(buf) && buf[j]-'0' <= 9; j++ {
		m = m*10 + uint64(buf[j]-'0')
	}
	return j, m, sig + j - s
}

// The powers of ten eiselLemire takes, both bounds inclusive.
const (
	minPow = -348
	maxPow = 347
)

// powers holds 10^q for q in [minPow, maxPow] as row q − minPow: the 128-bit
// mantissa ⌊10^q·2^s⌋, with s the shift that sets bit 127, as its {high,
// low} words. They are strconv's detailedPowersOfTen, built once here from
// exact integers.
var powers [maxPow - minPow + 1][2]uint64

func init() {
	var row [16]byte
	ten, one := big.NewInt(10), big.NewInt(1)
	p, r := big.NewInt(1), new(big.Int)
	put := func(q int, r *big.Int) {
		r.FillBytes(row[:])
		powers[q-minPow] = [2]uint64{binary.BigEndian.Uint64(row[:8]), binary.BigEndian.Uint64(row[8:])}
	}
	for q := 0; q <= maxPow; q++ { // p = 10^q, shifted to 128 bits
		put(q, r.Rsh(r.Lsh(p, 128), uint(p.BitLen())))
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for q := -1; q >= minPow; q-- { // p = 10^-q, and 2^s / p has 128 bits
		put(q, r.Quo(r.Lsh(one, uint(127+p.BitLen())), p))
		p.Mul(p, ten)
	}
}

// eiselLemire returns the float64 nearest m·10^q and true when the
// Eisel–Lemire step decides it (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021), and false when the 128-bit product cannot tell which way
// to round, q is outside powers, or the value is subnormal or out of range.
// It is strconv's eiselLemire64, which strconv does not export.
func eiselLemire(m uint64, q int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if m == 0 {
		return math.Float64frombits(sign), true
	}
	if q < minPow || q > maxPow {
		return 0, false
	}
	clz := bits.LeadingZeros64(m)
	m <<= clz & 63
	exp := uint64(217706*q>>16+64+1023) - uint64(clz) // 217706/2^16 ≈ log2(10)
	pow := &powers[q-minPow]
	hi, lo := bits.Mul64(m, pow[0])
	if hi&0x1FF == 0x1FF && lo+m < m {
		// The low word's product may carry into the bits that round.
		yHi, yLo := bits.Mul64(m, pow[1])
		wHi, wLo := hi, lo+yHi
		if wLo < lo {
			wHi++
		}
		if wHi&0x1FF == 0x1FF && wLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = wHi, wLo
	}
	msb := hi >> 63
	mant := hi >> ((msb + 9) & 63) // 54 bits
	exp -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // on a halfway point the truncated power cannot round
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	if exp-1 >= 0x7FF-1 {
		return 0, false // zero or below (subnormal), 0x7FF or above (out of range)
	}
	return math.Float64frombits(sign | exp<<52 | mant&(1<<52-1)), true
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
