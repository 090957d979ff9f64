package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// requestTypes are the wire types of the three queued request bodies, each
// made fresh per decode.
var requestTypes = []struct {
	name string
	new  func() any
}{
	{"ingest", func() any { return new(IngestRequest) }},
	{"diagnose", func() any { return new(DiagnoseRequest) }},
	{"label", func() any { return new(SignatureRequest) }},
}

// referenceRequest is the JSON path decodeIngestJSON replaced, for req's
// type: encoding/json with unknown fields refused, the handler's required
// fields, validateSamples on the samples (always on ingest, when sent
// otherwise) and fromSamples. It moves the samples out of req, leaving the
// fields the decoder fills, and b is nil when none were sent. decoded
// reports whether Decode accepted the body, so a refusal after it must match
// the decoder's word for word.
func referenceRequest(body []byte, req any) (samples []Sample, b *ingestBatch, decoded bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, nil, false, err
	}
	required := false
	switch r := req.(type) {
	case *IngestRequest:
		if r.Workload == "" || r.Node == "" {
			err = errNoIdentity
		}
		samples, r.Samples, required = r.Samples, nil, true
	case *DiagnoseRequest:
		if r.Workload == "" || r.Node == "" {
			err = errNoIdentity
		}
		samples, r.Samples = r.Samples, nil
	case *SignatureRequest:
		if r.Workload == "" || r.Node == "" || r.Problem == "" {
			err = errNoLabel
		}
		samples, r.Samples = r.Samples, nil
	}
	if err == nil && (samples != nil || required) {
		if err = validateSamples(samples); err == nil {
			b = new(ingestBatch)
			b.fromSamples(samples)
		}
	}
	return samples, b, true, err
}

// hasRepeatedKey reports whether some object in body names one key twice,
// under encoding/json's key matching (bytes.EqualFold): the bodies the
// decoder refuses on purpose, where Decode merges.
func hasRepeatedKey(body []byte) bool {
	type object struct {
		keys    []string
		wantKey bool
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []*object // nil for an array
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *object
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			if top != nil {
				top.wantKey = true // the container is this member's value
			}
			var o *object
			if tok == json.Delim('{') {
				o = &object{wantKey: true}
			}
			stack = append(stack, o)
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		default:
			if top != nil && top.wantKey {
				k := tok.(string)
				if slices.ContainsFunc(top.keys, func(p string) bool { return strings.EqualFold(p, k) }) {
					return true
				}
				top.keys, top.wantKey = append(top.keys, k), false
			} else if top != nil {
				top.wantKey = true
			}
		}
		if len(stack) == 0 {
			return false
		}
	}
}

// compareIngestJSON runs one body through decodeIngestJSON and
// referenceRequest as the request type newReq makes and reports whether each
// accepted it, plus any disagreement the contract forbids: a different
// verdict (a repeated key aside, which the decoder must refuse), a different
// refusal once Decode accepted, or a different identity, wait flag, problem,
// n, column, flag or CPI bit.
func compareIngestJSON(body []byte, newReq func() any) (got, ref bool, diff string) {
	var b ingestBatch
	req, wantReq := newReq(), newReq()
	err := decodeIngestJSON(body, req, &b)
	samples, want, decoded, rerr := referenceRequest(body, wantReq)
	got, ref = err == nil, rerr == nil
	switch {
	case hasRepeatedKey(body):
		if got {
			diff = "accepted a body with a repeated key"
		}
	case got != ref:
		diff = fmt.Sprintf("decoder error %v, reference error %v", err, rerr)
	case !got:
		if decoded && err.Error() != rerr.Error() {
			diff = fmt.Sprintf("refused with %q, reference with %q", err, rerr)
		}
	case !reflect.DeepEqual(req, wantReq):
		diff = fmt.Sprintf("decoded %+v, reference %+v", req, wantReq)
	case want == nil:
		if b.n != 0 {
			diff = fmt.Sprintf("decoded %d samples from a body that sent none", b.n)
		}
	default:
		if diff = batchDiff(&b, want); diff == "" {
			diff = sentDiff(&b, samples)
		}
	}
	return got, ref, diff
}

// sentDiff holds a batch to the samples it was sent as, independently of
// fromSamples: every valid entry bit for bit, every invalid entry flagged, a
// zero placeholder stored as NaN and a non-zero one kept.
func sentDiff(b *ingestBatch, samples []Sample) string {
	same := func(got float64, gotOK bool, v float64, ok bool) bool {
		if gotOK != ok {
			return false
		}
		if !ok && v == 0 {
			return math.IsNaN(got)
		}
		return math.Float64bits(got) == math.Float64bits(v)
	}
	for i, s := range samples {
		for m, v := range s.Metrics {
			if c := m*b.n + i; !same(b.cols[c], b.valid[c], v, s.Valid == nil || s.Valid[m]) {
				return fmt.Sprintf("metric %d at sample %d: stored (%v,%v), sent %v", m, i, b.cols[c], b.valid[c], v)
			}
		}
		if !same(b.cpi[i], b.cpiOK[i], s.CPI, s.CPIValid == nil || *s.CPIValid) {
			return fmt.Sprintf("cpi at sample %d: stored (%v,%v), sent %v", i, b.cpi[i], b.cpiOK[i], s.CPI)
		}
	}
	return ""
}

func batchDiff(got, want *ingestBatch) string {
	if got.n != want.n || len(got.cols) != len(want.cols) || len(got.cpi) != len(want.cpi) {
		return fmt.Sprintf("n = %d (%d cells), reference %d (%d cells)", got.n, len(got.cols), want.n, len(want.cols))
	}
	for i := range want.cols {
		if math.Float64bits(got.cols[i]) != math.Float64bits(want.cols[i]) || got.valid[i] != want.valid[i] {
			return fmt.Sprintf("column cell %d: (%v,%v), reference (%v,%v)", i, got.cols[i], got.valid[i], want.cols[i], want.valid[i])
		}
	}
	for i := range want.cpi {
		if math.Float64bits(got.cpi[i]) != math.Float64bits(want.cpi[i]) || got.cpiOK[i] != want.cpiOK[i] {
			return fmt.Sprintf("cpi %d: (%v,%v), reference (%v,%v)", i, got.cpi[i], got.cpiOK[i], want.cpi[i], want.cpiOK[i])
		}
	}
	return ""
}

// jsonArray is a metrics.Count-entry JSON array of fill whose first entries
// are head.
func jsonArray(fill string, head ...string) string {
	e := make([]string, metrics.Count)
	for i := range e {
		e[i] = fill
	}
	copy(e, head)
	return "[" + strings.Join(e, ",") + "]"
}

// jsonEscape is the JSON escape of the UTF-16 code unit hex.
func jsonEscape(hex string) string { return "\\u" + hex }

// withMetrics is a sample whose metric vector starts with head.
func withMetrics(head ...string) string {
	return `{"metrics":` + jsonArray("2", head...) + `,"cpi":1}`
}

// ingestBody is a request for workload "w" on node "n" carrying samples.
func ingestBody(samples ...string) string {
	return `{"workload":"w","node":"n","samples":[` + strings.Join(samples, ",") + `]}`
}

// The expected outcomes of ingestJSONCases.
const (
	accept        = iota // both decoders accept, with the same batch
	refuse               // both refuse
	refuseRepeats        // the decoder refuses a repeated key; Decode merges
)

var (
	plainSample   = `{"metrics":` + jsonArray("1.5") + `,"cpi":1.25}`
	maskedSample  = `{"metrics":` + jsonArray("7", "0", "-0") + `,"cpi":0,"valid":` + jsonArray("true", "false", "false") + `,"cpiValid":false}`
	withoutPrefix = strings.TrimPrefix(ingestBody(plainSample), `{"workload":"w","node":"n",`)
)

// ingestJSONCases names the grammar and null rules of the decoder's
// contract: the seeds of FuzzIngestJSON and the rows of
// TestIngestJSONGrammar.
var ingestJSONCases = []struct {
	name string
	body string
	want int
}{
	{"plain", ingestBody(plainSample), accept},
	{"masked", ingestBody(plainSample, maskedSample), accept},
	{"whitespace everywhere", strings.NewReplacer(",", " ,\n", ":", "\t: ", "[", "[ ", "]", "\r]", "{", "{ ").Replace(" " + ingestBody(maskedSample)), accept},
	{"Workload and NODE spellings", `{"Workload":"w","NODE":"n",` + withoutPrefix, accept},
	{"escaped key", `{"` + jsonEscape("0077") + `orkload":"w","node":"n",` + withoutPrefix, accept},
	{"Kelvin sign folds to k", "{\"wor\u212aload\":\"w\",\"node\":\"n\"," + withoutPrefix, accept},
	{"escaped identity", `{"workload":"w` + jsonEscape("00e9") + `\"\n\/","node":"` + jsonEscape("d83d") + jsonEscape("de00") + `",` + withoutPrefix, accept},
	{"lone surrogate in identity", `{"workload":"w` + jsonEscape("d83d") + `","node":"n",` + withoutPrefix, accept},
	{"non-ASCII identity", "{\"workload\":\"wörk\",\"node\":\"n\xff\xfe\"," + withoutPrefix, accept},
	{"control byte in identity", "{\"workload\":\"w\x01\",\"node\":\"n\"," + withoutPrefix, refuse},
	{"bad escape in key", `{"wor\qload":"w","node":"n",` + withoutPrefix, refuse},
	{"top-level null", `null`, refuse},
	{"top-level null and garbage", `null}{`, refuse},
	{"null workload", `{"workload":null,"node":"n",` + withoutPrefix, refuse},
	{"null samples", `{"workload":"w","node":"n","samples":null}`, refuse},
	{"null sample", ingestBody(plainSample, `null`), refuse},
	{"null metrics", ingestBody(`{"metrics":null,"cpi":1}`), refuse},
	{"null metric entry", ingestBody(withMetrics("1", "null", "3")), accept},
	{"null cpi", ingestBody(`{"metrics":` + jsonArray("1") + `,"cpi":null}`), accept},
	{"null valid", ingestBody(`{"metrics":` + jsonArray("0") + `,"valid":null,"cpi":1}`), accept},
	{"null valid entry", ingestBody(`{"metrics":` + jsonArray("0") + `,"valid":` + jsonArray("true", "null") + `}`), accept},
	{"null cpiValid", ingestBody(`{"metrics":` + jsonArray("1") + `,"cpi":0,"cpiValid":null}`), accept},
	{"empty valid", ingestBody(`{"metrics":` + jsonArray("1") + `,"valid":[]}`), refuse},
	{"long valid", ingestBody(`{"metrics":` + jsonArray("1") + `,"valid":[true,` + jsonArray("true")[1:] + `}`), refuse},
	{"short metrics", ingestBody(plainSample, `{"metrics":[1,2],"cpi":1}`), refuse},
	{"empty batch", ingestBody(), refuse},
	{"missing node", `{"workload":"w",` + withoutPrefix, refuse},
	{"negative zero", ingestBody(withMetrics("-0", "-0.0e0")), accept},
	{"underflow 1e-400", ingestBody(withMetrics("1e-400", "-1e-400")), accept},
	{"exponent forms", ingestBody(withMetrics("1E+2", "-2.5e-3", "0.0", "123456789012345678901234567890e-10")), accept},
	{"leading zero 01", ingestBody(withMetrics("01")), refuse},
	{"overflow 1e400", ingestBody(withMetrics("1e400")), refuse},
	{"bare point", ingestBody(withMetrics("1.")), refuse},
	{"leading point", ingestBody(withMetrics(".5")), refuse},
	{"plus sign", ingestBody(withMetrics("+1")), refuse},
	{"bare exponent", ingestBody(withMetrics("1e")), refuse},
	{"bare minus", ingestBody(withMetrics("-")), refuse},
	{"NaN literal", ingestBody(withMetrics("NaN")), refuse},
	{"string number", ingestBody(`{"metrics":` + jsonArray("1") + `,"cpi":"1"}`), refuse},
	{"number mask", ingestBody(`{"metrics":` + jsonArray("1") + `,"valid":` + jsonArray("1") + `}`), refuse},
	{"truncated literal", ingestBody(`{"metrics":` + jsonArray("1") + `,"cpiValid":tru}`), refuse},
	{"trailing comma", ingestBody(withMetrics("1") + `,`), refuse},
	{"truncated", ingestBody(plainSample)[:60], refuse},
	{"trailing garbage", ingestBody(plainSample) + `}{"workload":`, accept},
	{"unknown field", `{"workload":"w","node":"n","samples":[],"stages":[{"stage":"map"}]}`, refuse},
	{"unknown sample field", ingestBody(`{"metrics":` + jsonArray("1") + `,"extra":1}`), refuse},
	{"repeated samples key", `{"workload":"w","node":"n","samples":[` + plainSample + `],"samples":[` + maskedSample + `]}`, refuseRepeats},
	{"repeated key by case", `{"workload":"w","Workload":"v","node":"n",` + withoutPrefix, refuseRepeats},
	{"repeated sample key", ingestBody(`{"cpi":1,"metrics":` + jsonArray("1") + `,"cpi":2}`), refuseRepeats},
}

// identityOnly is a diagnose or label body naming stream "w" on node "n",
// with more members.
func identityOnly(more string) string { return `{"workload":"w","node":"n"` + more + `}` }

// controlJSONCases are diagnose and label bodies (and one ingest body
// holding a diagnose key), by index into requestTypes: the keys each type
// declares, samples optional but validated when sent, null samples absent.
var controlJSONCases = []struct {
	name string
	kind int
	body string
	want int
}{
	{"diagnose the window", 1, identityOnly(``), accept},
	{"diagnose and wait", 1, identityOnly(`,"wait":true`), accept},
	{"WAIT spelling", 1, identityOnly(`,"WAIT":false`), accept},
	{"null wait", 1, identityOnly(`,"wait":null`), accept},
	{"string wait", 1, identityOnly(`,"wait":"true"`), refuse},
	{"number wait", 1, identityOnly(`,"wait":1`), refuse},
	{"diagnose samples", 1, identityOnly(`,"samples":[` + plainSample + `,` + maskedSample + `],"wait":true`), accept},
	{"diagnose null samples", 1, identityOnly(`,"samples":null`), accept},
	{"diagnose empty samples", 1, identityOnly(`,"samples":[]`), refuse},
	{"diagnose short vector", 1, identityOnly(`,"samples":[{"metrics":[1,2],"cpi":1}]`), refuse},
	{"diagnose without node", 1, `{"workload":"w","wait":true}`, refuse},
	{"diagnose with a problem", 1, identityOnly(`,"problem":"p"`), refuse},
	{"repeated wait", 1, identityOnly(`,"wait":true,"Wait":false`), refuseRepeats},
	{"label the window", 2, identityOnly(`,"problem":"cpu-hog"`), accept},
	{"label samples", 2, identityOnly(`,"problem":"p","samples":[` + maskedSample + `]`), accept},
	{"label without problem", 2, identityOnly(``), refuse},
	{"label null problem", 2, identityOnly(`,"problem":null`), refuse},
	{"label without node but problem", 2, `{"workload":"w","problem":"p"}`, refuse},
	{"label and wait", 2, identityOnly(`,"problem":"p","wait":true`), refuse},
	{"repeated problem", 2, identityOnly(`,"problem":"p","problem":"q"`), refuseRepeats},
	{"ingest and wait", 0, strings.TrimSuffix(ingestBody(plainSample), `}`) + `,"wait":true}`, refuse},
}

// TestIngestJSONGrammar runs every named case through the decoder and the
// encoding/json reference and checks the outcome each case names.
func TestIngestJSONGrammar(t *testing.T) {
	check := func(name string, kind int, body string, want int) {
		t.Helper()
		got, ref, diff := compareIngestJSON([]byte(body), requestTypes[kind].new)
		if diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		wantGot, wantRef := want == accept, want != refuse
		if got != wantGot || ref != wantRef {
			t.Errorf("%s: decoder accepts=%v, reference accepts=%v; want %v, %v", name, got, ref, wantGot, wantRef)
		}
	}
	for _, tc := range ingestJSONCases {
		check(tc.name, 0, tc.body, tc.want)
	}
	for _, tc := range controlJSONCases {
		check(tc.name, tc.kind, tc.body, tc.want)
	}
}

// numberEnd returns the end of the JSON number starting at buf[i], or -1
// when the grammar refuses it: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// It and ParseFloat are the pair number replaced, and its reference.
func numberEnd(buf []byte, i int) int {
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	j := digitsEnd(buf, i)
	if j == i || buf[i] == '0' && j > i+1 {
		return -1 // no integer digit, or a leading zero
	}
	if j < len(buf) && buf[j] == '.' {
		if i, j = j+1, digitsEnd(buf, j+1); j == i {
			return -1
		}
	}
	if j < len(buf) && (buf[j] == 'e' || buf[j] == 'E') {
		if i = j + 1; i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if j = digitsEnd(buf, i); j == i {
			return -1
		}
	}
	return j
}

func digitsEnd(buf []byte, i int) int {
	for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
		i++
	}
	return i
}

// numberDiff holds number to numberEnd + ParseFloat on the bytes at buf[0]:
// the same end, the same refusal, the same error and the same bits.
func numberDiff(buf []byte) string {
	v, end, err := number(buf, 0)
	if want := numberEnd(buf, 0); end != want {
		return fmt.Sprintf("end %d, reference %d", end, want)
	}
	if end < 0 {
		return ""
	}
	want, werr := strconv.ParseFloat(string(buf[:end]), 64)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, reference %v", err, werr)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		return fmt.Sprintf("%v (%#x), reference %v (%#x)", v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return ""
}

// numberEdges are the in-house step's edges and its fallbacks' (each
// followed by a comma): the seeds of FuzzJSONNumber and the rows of
// TestJSONNumberEdges.
var numberEdges = []struct {
	lit     string
	refused bool
}{
	{lit: "9007199254740991"},            // 2^53 - 1
	{lit: "-9007199254740991"},           // negated
	{lit: "9007199254740992"},            // 2^53
	{lit: "9007199254740993"},            // 2^53 + 1: halfway, ParseFloat rounds to even
	{lit: "4503599627370497"},            // 2^52 + 1
	{lit: "900719925474099.1"},           // 2^53 - 1 with one fraction digit
	{lit: "0.9007199254740993"},          // 2^53 + 1 over 10^16
	{lit: "0.0000000000000000000015"},    // 22 fraction digits
	{lit: "0.00000000000000000000015"},   // 23
	{lit: "1234567890123456789"},         // 19 significant digits
	{lit: "9999999999999999999"},         // 10^19 - 1: the largest 19-digit mantissa
	{lit: "12345678901234567890"},        // 20: ParseFloat
	{lit: "0.0000012345678901234567890"}, // 20 after leading zeros
	{lit: "18446744073709551616"},        // 2^64: a 64-bit mantissa wraps to 0
	{lit: "18446744073709551617"},        // wraps to 1
	{lit: "1844674407370955161.7"},       // wraps to 1 over 10
	{lit: "36893488147419103233"},        // 2^65 + 1: wraps to 1
	{lit: "0"}, {lit: "-0"}, {lit: "-0.0"}, {lit: "0.000"}, {lit: "-0e5"},
	{lit: "0.0000000000000000000000000001"},   // 28 fraction digits
	{lit: "-0.00000000000000000000000000001"}, // 29
	{lit: "0.1"}, {lit: "0.3"}, {lit: "123.456"}, {lit: "1.7976931348623157"},
	{lit: "1e2"}, {lit: "1E+2"}, {lit: "-2.5e-3"}, {lit: "5e-324"}, {lit: "1e-400"},
	{lit: "1e400"}, {lit: "-1e400"}, {lit: "123456789012345678901234567890e-10"},
	{lit: "1e347"}, {lit: "1e348"}, {lit: "1e-348"}, {lit: "1e-349"}, // the table's ends and past them
	{lit: "1.7976931348623157e308"},                     // the largest float64
	{lit: "1.7976931348623159e308"},                     // rounds past it: ParseFloat's range error
	{lit: "2.2250738585072014e-308"},                    // the smallest normal float64
	{lit: "4.9e-324"},                                   // the smallest subnormal: ParseFloat
	{lit: "2.4703282292062328e-324"},                    // just above half of it: ParseFloat
	{lit: "1E+0010"}, {lit: "1e0000000000000000000001"}, // leading zeros in the exponent
	{lit: "123456789.01234567"},                           // 17 digits, an eight-byte load across '.'
	{lit: "12.345678901234567e-100"},                      // 17 digits, an eight-byte load across 'e'
	{lit: "0." + strings.Repeat("0", 99998) + "1e100000"}, // strconv stops its exponent at 10 000: 0
	{lit: "0." + strings.Repeat("0", 9998) + "1e10000"},   // a 5-digit exponent: ParseFloat, 10
	{lit: "01", refused: true}, {lit: "-01", refused: true}, {lit: "00", refused: true},
	{lit: "1.", refused: true}, {lit: ".5", refused: true}, {lit: "+1", refused: true},
	{lit: "-", refused: true}, {lit: "1e", refused: true}, {lit: "1e+", refused: true},
	{lit: "-.5", refused: true}, {lit: "NaN", refused: true}, {lit: "", refused: true},
	{lit: "00000000.5", refused: true}, {lit: "1.e5", refused: true}, {lit: "12345678e", refused: true},
}

// TestJSONNumberEdges checks number on each edge against numberEnd +
// ParseFloat and against the grammar verdict the row names.
func TestJSONNumberEdges(t *testing.T) {
	for _, tc := range numberEdges {
		buf := []byte(tc.lit + ",")
		if diff := numberDiff(buf); diff != "" {
			t.Errorf("%q: %s", tc.lit, diff)
		}
		if _, end, _ := number(buf, 0); (end < 0) != tc.refused {
			t.Errorf("%q: end %d, want refused=%v", tc.lit, end, tc.refused)
		} else if !tc.refused && end != len(tc.lit) {
			t.Errorf("%q: end %d, want %d", tc.lit, end, len(tc.lit))
		}
	}
}

// TestDigitsEightAtATime holds digits' eight-byte loop to a byte-by-byte
// one: every byte that is not a digit, at each of the first 16 places of a
// run of digits, ends the run there with the same mantissa and count.
func TestDigitsEightAtATime(t *testing.T) {
	run := []byte("987654321098765432109876")
	for p := 0; p <= 16; p++ {
		for c := 0; c < 256; c++ {
			if '0' <= c && c <= '9' {
				continue
			}
			buf := slices.Clone(run)
			if p < 16 {
				buf[p] = byte(c)
			}
			want, end := uint64(7), digitsEnd(buf, 0)
			for _, d := range buf[:end] {
				want = want*10 + uint64(d-'0')
			}
			if j, m, sig := digits(buf, 0, 7, 0); j != end || m != want || sig != end {
				t.Fatalf("%q: end %d, m %d, sig %d; want %d, %d, %d", buf, j, m, sig, end, want, end)
			}
		}
	}
}

// TestNumberTableSweep reaches every row of powers, which random fuzzing
// does not: the mantissas 1, 2^53 ± 1, 10^19 − 1 and eight seeded 17-digit
// ones, each times 10^q for every q in [minPow, maxPow], are held to
// numberEnd + ParseFloat, and every row that can give a normal float64 must
// give one in-house.
func TestNumberTableSweep(t *testing.T) {
	rng := stats.NewRNG(59)
	mants := []uint64{1, 1<<53 - 1, 1<<53 + 1, 1e19 - 1}
	for range 8 {
		mants = append(mants, 1e16+uint64(rng.Intn(9e16)))
	}
	for q := minPow; q <= maxPow; q++ {
		normal, inHouse := false, false
		for _, m := range mants {
			buf := fmt.Appendf(nil, "%de%d,", m, q)
			if diff := numberDiff(buf); diff != "" {
				t.Errorf("%s %s", buf, diff)
			}
			ref, _ := strconv.ParseFloat(string(buf[:len(buf)-1]), 64)
			normal = normal || ref >= 0x1p-1022 && !math.IsInf(ref, 0)
			_, _, done := numberWalk(buf, 0)
			inHouse = inHouse || done
		}
		if normal && !inHouse {
			t.Errorf("row 1e%d: no literal finished in-house", q)
		}
	}
}

// significant counts the significant digits of a JSON number literal's
// mantissa and of its exponent.
func significant(lit string) (sig, xsig int) {
	mant, exp, _ := strings.Cut(strings.ToLower(strings.TrimPrefix(lit, "-")), "e")
	mant = strings.TrimLeft(strings.Replace(mant, ".", "", 1), "0")
	return len(mant), len(strings.TrimLeft(exp, "+-0"))
}

// seventeenDigits draws from [0, 1) until a value has a 17-digit shortest
// form, the commonest kind of simulator literal.
func seventeenDigits(rng *stats.RNG) float64 {
	for {
		v := rng.Uniform(0, 1)
		if sig, _ := significant(strconv.FormatFloat(v, 'g', -1, 64)); sig == 17 {
			return v
		}
	}
}

// seventeenDigitSamples returns n samples whose every value has a 17-digit
// shortest form.
func seventeenDigitSamples(rng *stats.RNG, n int) []Sample {
	out := make([]Sample, n)
	for t := range out {
		row := make([]float64, metrics.Count)
		for m := range row {
			row[m] = seventeenDigits(rng)
		}
		out[t] = Sample{Metrics: row, CPI: seventeenDigits(rng)}
	}
	return out
}

// TestNumberReach: every literal of a json.Marshal'd body with at most 19
// significant digits and an exponent of at most 4 is finished by numberWalk,
// none handed to ParseFloat.
func TestNumberReach(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []Sample
	}{
		{"coupled", coupledSamples(stats.NewRNG(5), 24, 8, nil, 7)},
		{"17 digits", seventeenDigitSamples(stats.NewRNG(5), 24)},
	} {
		body, err := json.Marshal(IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: tc.samples})
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		n, inHouse := 0, 0
		for tok, err := dec.Token(); err == nil; tok, err = dec.Token() {
			lit, ok := tok.(json.Number)
			if !ok {
				continue
			}
			n++
			_, end, done := numberWalk([]byte(lit), 0)
			if sig, xsig := significant(string(lit)); end != len(lit) || !done && sig <= 19 && xsig <= 4 {
				t.Errorf("%s: %s: end %d, in-house %v", tc.name, lit, end, done)
			}
			if done {
				inHouse++
			}
		}
		if want := len(tc.samples) * (metrics.Count + 1); n < want {
			t.Errorf("%s: %d literals, want at least %d", tc.name, n, want)
		}
		t.Logf("%s: %d of %d literals finished in-house", tc.name, inHouse, n)
	}
}

// TestIngestJSONDecodeAllocs mirrors TestIngestBatchPathAllocs for the JSON
// encoding: a steady-state decode into a recycled batch plus the evicting
// slide allocates only the two identity strings, with validity masks on the
// wire as much as without.
func TestIngestJSONDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []Sample
	}{
		{"clean", testSamples(24)},
		{"masked", maskedSamples(stats.NewRNG(3), 24)},
		{"17 digits", seventeenDigitSamples(stats.NewRNG(3), 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: tc.samples})
			if err != nil {
				t.Fatal(err)
			}
			var w colWindow
			w.init(60)
			b := new(ingestBatch)
			step := func() {
				var req IngestRequest
				if err := decodeIngestJSON(body, &req, b); err != nil {
					t.Fatal(err)
				}
				w.slide(b)
			}
			for w.n < w.cap {
				step()
			}
			if got := testing.AllocsPerRun(100, step); got > 2 {
				t.Errorf("decode + slide allocates %v times per %d-sample body, want at most 2", got, len(tc.samples))
			}
		})
	}
}

// BenchmarkIngestJSONDecode times one 24-tick ingest body through the
// decoder and through the encoding/json path it replaced.
func BenchmarkIngestJSONDecode(b *testing.B) {
	body, err := json.Marshal(IngestRequest{Workload: "wordcount", Node: "10.0.0.2",
		Samples: coupledSamples(stats.NewRNG(5), 24, 8, nil, 7)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decoder", func(b *testing.B) {
		batch := new(ingestBatch)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req IngestRequest
			if err := decodeIngestJSON(body, &req, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := referenceRequest(body, new(IngestRequest)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJSONNumber times number on one literal per op, over 1 024
// literals of each kind: short ones with three fraction digits, 17-digit
// shortest forms, and 25-fraction-digit ones that go to ParseFloat.
func BenchmarkJSONNumber(b *testing.B) {
	rng := stats.NewRNG(59)
	for _, set := range []struct {
		name string
		lit  func() string
	}{
		{"short", func() string { return strconv.FormatFloat(rng.Uniform(0, 1000), 'f', 3, 64) }},
		{"shortest17", func() string { return strconv.FormatFloat(seventeenDigits(rng), 'g', -1, 64) }},
		{"fallback", func() string { return strconv.FormatFloat(rng.Uniform(0, 1), 'f', 25, 64) }},
	} {
		var buf []byte
		var starts [1024]int
		for i := range starts {
			starts[i] = len(buf)
			buf = append(append(buf, set.lit()...), ',')
		}
		b.Run(set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := number(buf, starts[i%len(starts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
