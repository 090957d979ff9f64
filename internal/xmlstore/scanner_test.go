package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/quick"

	"invarnetx/internal/invariant"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// tokens renders the scanner's token stream over doc, one token per field:
// S:name[attr=value ...], T:"text", E:name.
func tokens(doc string) (string, error) {
	s := &scanner{buf: []byte(doc)}
	var out []string
	for {
		t, err := s.next()
		if err != nil {
			return strings.Join(out, " "), err
		}
		switch t.kind {
		case tokEOF:
			return strings.Join(out, " "), nil
		case tokStart:
			f := "S:" + string(t.data)
			if len(s.attrs) > 0 {
				var as []string
				for _, a := range s.attrs {
					as = append(as, fmt.Sprintf("%s=%q", a.name, a.value))
				}
				f += "[" + strings.Join(as, " ") + "]"
			}
			out = append(out, f)
		case tokEnd:
			out = append(out, "E:"+string(t.data))
		case tokText:
			out = append(out, fmt.Sprintf("T:%q", t.data))
		}
	}
}

// TestScannerReads pins the accepted subset: what Save writes and what a
// careful hand edit adds to it.
func TestScannerReads(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"declaration, indentation, self-closing",
			"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a v=\"1\">\n  <b/>\n</a>\n",
			`S:a[v="1"] T:"\n  " S:b E:b T:"\n" E:a`},
		{"no declaration, lower-case encoding, standalone",
			`<a/>`, `S:a E:a`},
		{"declaration variants",
			`<?xml version='1.0' encoding='utf-8' standalone="yes" ?><a/>`, `S:a E:a`},
		{"either quote, the other one inside, spaces around = and in tags",
			`<a x = 'say "hi"' y="it's"  ></a >`, `S:a[x="say \"hi\"" y="it's"] E:a`},
		{"predefined entities",
			`<a t="&lt;&amp;&gt;&quot;&apos;">&lt;&amp;&gt;&quot;&apos;</a>`,
			`S:a[t="<&>\"'"] T:"<&>\"'" E:a`},
		{"numeric entities as Save writes them",
			`<a>&#34;&#39;&#x9;&#xA;&#xD;&#x1F600;</a>`, `S:a T:"\"'\t\n\r😀" E:a`},
		{"line ends: \\r\\n and lone \\r become \\n, &#13; stays",
			"<a t=\"x\r\ny\rz\">\r\n&#13;\n\r</a>", `S:a[t="x\ny\nz"] T:"\n\r\n\n" E:a`},
		{"UTF-8 up to the astral planes, literal",
			`<a t="é">日本 😀 ` + "\uFFFD" + `</a>`, `S:a[t="é"] T:"日本 😀 ` + "\uFFFD" + `" E:a`},
		{"comments anywhere, splitting character data",
			`<!-- head --><a>x<!-- - > -->y</a><!----> `, `S:a T:"x" T:"y" E:a`},
		{"]] and > apart, ]]> inside an attribute",
			`<a t="]]>">]] >]&gt;</a>`, `S:a[t="]]>"] T:"]] >]>" E:a`},
		{"names with digits, dots, dashes, underscores",
			`<next-seq _a.b-1="v"/>`, `S:next-seq[_a.b-1="v"] E:next-seq`},
	} {
		got, err := tokens(tc.doc)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestScannerRefuses: everything outside the subset is an error that names
// the construct, so LoadFrom reports the file instead of half reading it.
func TestScannerRefuses(t *testing.T) {
	deep := strings.Repeat("<a>", maxDepth+1) + strings.Repeat("</a>", maxDepth+1)
	for _, tc := range []struct{ doc, want string }{
		{``, "no root element"},
		{" \n<!-- only a comment -->", "no root element"},
		{`<!DOCTYPE a><a/>`, "DOCTYPE"},
		{`<a><![CDATA[x]]></a>`, "CDATA"},
		{`<a><?php x ?></a>`, "processing instruction"},
		{` <?xml version="1.0"?><a/>`, "processing instruction"},
		{`<?xml-stylesheet href="x"?><a/>`, "processing instruction"},
		{`<?xml version="1.1"?><a/>`, `version="1.1"`},
		{`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `encoding="ISO-8859-1"`},
		{`<?xml encoding="UTF-8"?><a/>`, "unsupported XML declaration"},
		{`<?xml version="1&#46;0"?><a/>`, "malformed XML declaration"},
		{`<?xml version="1.0"><a/>`, "malformed XML declaration"},
		{`<x:a/>`, "namespace prefix"},
		{`<a x:b="1"/>`, "namespace prefix"},
		{`<a xmlns="urn:x"/>`, "xmlns"},
		{`<é/>`, "non-ASCII name"},
		{`<1a/>`, "expected a name"},
		{`<aé/>`, "non-ASCII name"},
		{`<a></b>`, "unexpected end tag </b>"},
		{`</a>`, "unexpected end tag </a>"},
		{`<a><b></a></b>`, "unexpected end tag </a>"},
		{`<a>`, "unexpected end of file in <a>"},
		{`<a><b>text`, "unexpected end of file in <b>"},
		{`<a`, "unexpected end of file"},
		{`<a x="1`, "unexpected end of file in an attribute value"},
		{`<a/><b/>`, "second root"},
		{`<a/>trailing`, "outside the root"},
		{`leading<a/>`, "outside the root"},
		{`<a x/>`, "without ="},
		{`<a x=1/>`, "without a quoted value"},
		{`<a x="1"y="2"/>`, "white space before an attribute"},
		{`<a x="1" x="2"/>`, "attribute x repeated"},
		{`<a x="<"/>`, "unescaped <"},
		{`<a / >`, "malformed start tag"},
		{`<a></a x>`, "malformed end tag"},
		{`<a>&nbsp;</a>`, "entity"},
		{`<a>&amp</a>`, "entity"},
		{`<a>& </a>`, "entity"},
		{`<a>&#;</a>`, "entity"},
		{`<a>&#x;</a>`, "entity"},
		{`<a>&#X41;</a>`, "entity"},
		{`<a>&#x0;</a>`, "entity"},
		{`<a>&#xD800;</a>`, "entity"},
		{`<a>&#xFFFE;</a>`, "entity"},
		{`<a>&#x110000;</a>`, "entity"},
		{`<a>&#99999999999999999999;</a>`, "entity"},
		{"<a>\x00</a>", "illegal character"},
		{"<a>\x1b</a>", "illegal character"},
		{"<a t=\"\x01\"/>", "illegal character"},
		{"<a>\xff</a>", "invalid UTF-8"},
		{"<a>\xed\xa0\x80</a>", "invalid UTF-8"}, // a surrogate, encoded
		{"<a>\xef\xbf\xbe</a>", "illegal character"},
		{"<a><!-- \x00 --></a>", "invalid character in a comment"},
		{`<a>]]></a>`, "]]>"},
		{`<a><!-- a -- b --></a>`, "comment"},
		{`<a><!-- open</a>`, "comment"},
		{`<a><!- x --></a>`, "<! declarations"},
		{deep, "nested deeper"},
	} {
		if got, err := tokens(tc.doc); err == nil {
			t.Errorf("%q: accepted as %s", tc.doc, got)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not name %q", tc.doc, err, tc.want)
		}
	}
	// The error carries the line, which is what a hand editor needs.
	if _, err := tokens("<a>\n\n<b>\n</a>"); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error = %v, want it to name line 4", err)
	}
}

// hostile strings: everything Save has to escape and the scanner to restore.
var hostile = []string{"", " ", `<&>"'`, "a\r\nb\rc\n", "\ttab\t", "😀 𐍈 日本", "]]>", "&amp;", "x  y", "\uFFFD"}

// savedKinds returns one saved document of each of the five file kinds,
// carrying s wherever the kind has a string.
func savedKinds(t testing.TB, s string) map[string][]byte {
	t.Helper()
	var db signature.DB
	for i, tuple := range []string{"01101", "11000", ""} {
		tu, _ := signature.ParseTuple(tuple)
		db.Add(signature.Entry{Tuple: tu, Problem: fmt.Sprintf("%s-%d", s, i/2), IP: s, Workload: "wl" + s})
	}
	model := EncodeModel(sampleDetector(), s, "wl"+s)
	inv := EncodeInvariants(invariant.NewSet(5, map[invariant.Pair]float64{{I: 0, J: 1}: 0.91, {I: 2, J: 4}: 5e-324}), s, "wl"+s)
	out := make(map[string][]byte)
	for kind, v := range map[string]any{
		"model":      model,
		"invariants": inv,
		"signatures": EncodeSignaturesFor(&db, s, "wl"+s),
		"lifecycle": LifecycleFile{Version: FormatVersion, IP: s, Type: "wl" + s, Generation: 3, SetFingerprint: s, Observed: 9,
			Edges: []LifecycleEdge{{I: 0, J: 1, State: s, Obs: 9, Viol: 2, Rate: 0.25, ShadowBase: 0.5}, {I: 2, J: 4, State: "live"}}},
		"fleet": FleetFile{Version: FormatVersion, Self: s, NextSeq: 3, Vector: []FleetClock{{Origin: s, Seq: 2}},
			Records: []FleetRecord{{Origin: s, Seq: 1, Workload: "wl" + s, Node: s, Problem: s, Tuple: "0110"}, {Origin: s, Seq: 2, Tuple: "1"}}},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, v); err != nil {
			t.Fatal(err)
		}
		out[kind] = buf.Bytes()
	}
	return out
}

// newKinds returns a zero value of each file kind to decode into.
func newKinds() []any {
	return []any{&ModelFile{}, &InvariantFile{}, &SignatureFile{}, &LifecycleFile{}, &FleetFile{}}
}

// same is reflect.DeepEqual but for NaN, which a hostile file can put in any
// float field and which equals itself in neither reading.
func same(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkAgainstStock is the differential oracle: whenever the scanner path
// accepts in, encoding/xml's own lexer accepts it and decodes the same struct;
// and the direct signature loop agrees with the reflection decode of the same
// bytes, on acceptance and on content.
func checkAgainstStock(t testing.TB, in []byte) {
	t.Helper()
	stock := newKinds()
	for i, got := range newKinds() {
		if err := decode(in, got); err != nil {
			continue
		}
		if err := xml.NewDecoder(bytes.NewReader(in)).Decode(stock[i]); err != nil {
			t.Fatalf("scanner accepts what encoding/xml refuses (%v) as %T:\n%q", err, got, in)
		}
		if !same(got, stock[i]) {
			t.Fatalf("scanner and encoding/xml disagree on %q:\n got %#v\nwant %#v", in, got, stock[i])
		}
	}
	var f SignatureFile
	want, err := []signature.Entry(nil), decode(in, &f)
	if err == nil {
		want, err = f.ParseEntries()
	}
	ip, workloadType, got, directErr := decodeSignatures(in)
	if (err == nil) != (directErr == nil) {
		t.Fatalf("signature file %q: direct loop err = %v, reflection err = %v", in, directErr, err)
	}
	if err != nil {
		return
	}
	if ip != f.IP || workloadType != f.Type || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("signature file %q:\ndirect loop (%q, %q) %v\nreflection  (%q, %q) %v", in, ip, workloadType, got, f.IP, f.Type, want)
	}
}

// handEdits are signature files no Save wrote but encoding/xml reads: each
// pins one rule the direct loop has to share with the reflection decode.
var handEdits = []string{
	`<signature-database/>`,
	`<signature-database version=""><signature/></signature-database>`,
	`<signature-database version=" 1 "><signature><tuple/></signature></signature-database>`,
	`<signature-database version="x"></signature-database>`,
	`<signature-database version="2"></signature-database>`,
	`<signatures version="1"></signatures>`,
	// character data concatenates around comments and child elements
	`<signature-database><ip>10.<!-- c -->0.<b>no</b>0.2</ip><signature><tuple>01<!-- c -->10<x>1</x></tuple><problem> p </problem></signature></signature-database>`,
	// a repeated scalar overwrites, unknown elements are skipped whole
	`<signature-database><type>a</type><type>b</type><extra><signature><tuple>1</tuple></signature></extra>` +
		`<signature><tuple>0</tuple><tuple>11</tuple><signature><tuple>x</tuple></signature><ip>n</ip><ip></ip></signature>stray</signature-database>`,
	`<signature-database><signature><tuple>01x</tuple></signature></signature-database>`,
	`<signature-database><signature><tuple> 01 </tuple></signature></signature-database>`,
	`<signature-database><signature><problem>a&amp;b` + "\r\n" + `</problem></signature></signature-database><!-- end -->`,
	`<signature-database><signature></signature></signature-database>trailing`,
}

func TestSignatureLoopMatchesReflection(t *testing.T) {
	for _, doc := range handEdits {
		checkAgainstStock(t, []byte(doc))
	}
	for _, s := range hostile {
		checkAgainstStock(t, savedKinds(t, s)["signatures"])
	}
	// And it is not vacuous: the repeated-scalar document decodes, to this.
	ip, workloadType, got, err := decodeSignatures([]byte(handEdits[7]))
	want := []signature.Entry{{Tuple: signature.Tuple{true, true}}}
	if err != nil || ip != "" || workloadType != "b" || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded (%q, %q) %v, %v; want (\"\", \"b\") %v", ip, workloadType, got, err, want)
	}
}

// FuzzLoad holds every xmlstore read path to the rule for decoders of bytes
// the program did not write — error, never panic or over-allocate — and the
// scanner to its contract with encoding/xml (see checkAgainstStock).
func FuzzLoad(f *testing.F) {
	for _, s := range hostile {
		for _, doc := range savedKinds(f, s) {
			f.Add(doc)
		}
		f.Add([]byte("<a t='" + s + "'>" + s + "</a>"))
	}
	for _, doc := range handEdits {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<a>&#x0;</a>`))
	f.Add([]byte(`<?xml version="1.0" encoding="latin1"?><!DOCTYPE a><a xmlns:x="y"><![CDATA[]]></a>`))
	f.Add([]byte(`<invariants><metrics>3</metrics><matrix><pair i="0" j="1" value="NaN"/><pair i="1" j="0" value="7"/></matrix></invariants>`))
	// Fill encoding/xml's per-type caches before anything is measured.
	for _, doc := range savedKinds(f, "warm") {
		checkAgainstStock(f, doc)
	}
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, in []byte) {
		// Up to a dozen decodes, half of them through encoding/xml's own
		// lexer, and reflection spends a few hundred bytes on a four-byte
		// element.
		limit := uint64(1<<16 + 2048*len(in))
		// The counter is the process's, and the fuzzing engine allocates
		// beside the test now and then: what the decoders spend repeats,
		// so only a bound exceeded three times running is theirs.
		var spent uint64
		for try := 0; try < 3; try++ {
			metrics.Read(allocated)
			before := allocated[0].Value.Uint64()
			checkAgainstStock(t, in)
			metrics.Read(allocated)
			if spent = allocated[0].Value.Uint64() - before; spent <= limit {
				return
			}
		}
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(in), spent, limit)
	})
}

// xmlString draws a string of legal XML characters, weighted toward the ones
// that need escaping.
func xmlString(rng *stats.RNG) string {
	const special = "<>&\"'\r\n\t ]-"
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			b.WriteByte(special[rng.Intn(len(special))])
		case 1:
			for {
				if r := rune(rng.Intn(0x110000)); isChar(r) {
					b.WriteRune(r)
					break
				}
			}
		default:
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// Property: every struct Save can write loads back equal through the scanner.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	floats := func(rng *stats.RNG) []float64 {
		var out []float64
		for n := rng.Intn(4); n > 0; n-- {
			out = append(out, rng.Normal(0, 1e3))
		}
		return out
	}
	roundTrip := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		str := func() string { return xmlString(rng) }
		model := ModelFile{Version: rng.Intn(3), P: rng.Intn(5), D: rng.Intn(3), Q: rng.Intn(5), IP: str(), Type: str(),
			AR: floats(rng), MA: floats(rng), Intercept: rng.Normal(0, 1), Sigma2: rng.Float64(), Rule: str(),
			Upper: rng.Float64(), Lower: -rng.Float64(), Consecutive: rng.Intn(9)}
		inv := InvariantFile{Version: 1, IP: str(), Type: str(), Metrics: rng.Intn(30)}
		sigs := SignatureFile{Version: 1, IP: str(), Type: str()}
		life := LifecycleFile{Version: 1, IP: str(), Type: str(), Generation: uint64(rng.Intn(1 << 30)), SetFingerprint: str(), Observed: int64(rng.Intn(1000))}
		fleet := FleetFile{Version: 1, Self: str(), NextSeq: uint64(rng.Intn(100))}
		for n := rng.Intn(5); n > 0; n-- {
			inv.Pairs = append(inv.Pairs, invariantPair{I: rng.Intn(30), J: rng.Intn(30), Value: rng.Float64()})
			sigs.Entries = append(sigs.Entries, SignatureEntry{Tuple: str(), Problem: str(), IP: str(), Type: str()})
			life.Edges = append(life.Edges, LifecycleEdge{I: rng.Intn(30), J: rng.Intn(30), State: str(), Obs: int64(rng.Intn(99)), Rate: rng.Float64(), ShadowBase: rng.Float64()})
			fleet.Vector = append(fleet.Vector, FleetClock{Origin: str(), Seq: uint64(rng.Intn(99))})
			fleet.Records = append(fleet.Records, FleetRecord{Origin: str(), Seq: uint64(rng.Intn(99)), Workload: str(), Node: str(), Problem: str(), Tuple: str()})
		}
		for i, v := range []any{&model, &inv, &sigs, &life, &fleet} {
			var buf bytes.Buffer
			if err := Save(&buf, v); err != nil {
				t.Errorf("seed %d: Save(%T): %v", seed, v, err)
				return false
			}
			back := newKinds()[i]
			if err := load(bytes.NewReader(buf.Bytes()), back); err != nil {
				t.Errorf("seed %d: load(%T): %v\n%s", seed, v, err, buf.Bytes())
				return false
			}
			// Load records the root element's name; Save needs none.
			reflect.ValueOf(v).Elem().FieldByName("XMLName").Set(reflect.ValueOf(back).Elem().FieldByName("XMLName"))
			if !reflect.DeepEqual(v, back) {
				t.Errorf("seed %d: %T came back changed:\nsaved  %#v\nloaded %#v\n%s", seed, v, v, back, buf.Bytes())
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSignatureFileDecodeAllocs pins the allocation shape of the direct
// loop: per entry, the tuple and — when it differs from the entry before —
// the problem name, whatever the file's size; per file, a constant. Boxing
// each of an entry's twenty tokens into xml.Token was ~43 % of the restore
// profile before the scanner had a by-value next.
func TestSignatureFileDecodeAllocs(t *testing.T) {
	perEntry := func(n int) float64 {
		var db signature.DB
		rng := stats.NewRNG(int64(n))
		for i := 0; i < n; i++ {
			tuple := make(signature.Tuple, 120)
			for k := range tuple {
				tuple[k] = rng.Bernoulli(0.2)
			}
			db.Add(signature.Entry{Tuple: tuple, Problem: fmt.Sprintf("fault-%d", i), IP: "10.0.0.2", Workload: "wordcount"})
		}
		var buf bytes.Buffer
		if err := Save(&buf, EncodeSignaturesFor(&db, "10.0.0.2", "wordcount")); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, entries, err := decodeSignatures(data); err != nil || len(entries) != n {
				t.Fatalf("decoded %d of %d entries: %v", len(entries), n, err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perEntry(200), perEntry(4000)
	t.Logf("allocations per signature entry: %.3f at 200 entries, %.3f at 4000", small, large)
	if small > 2.1 || large > 2.1 {
		t.Errorf("allocations per entry = %.3f (200 entries), %.3f (4000); want <= 2 plus a per-file constant", small, large)
	}
}

// ParseEntries validates the file and returns its signatures in file order;
// any malformed tuple rejects the whole file. It is the reflection-side
// reference LoadSignatureFile's token loop is held to, and no product code
// reads a signature file this way any more.
func (f SignatureFile) ParseEntries() ([]signature.Entry, error) {
	if err := checkVersion(f.Version); err != nil {
		return nil, err
	}
	out := make([]signature.Entry, len(f.Entries))
	for i, e := range f.Entries {
		t, err := signature.ParseTuple(e.Tuple)
		if err != nil {
			return nil, fmt.Errorf("xmlstore: signature %d: %w", i, err)
		}
		out[i] = signature.Entry{Tuple: t, Problem: e.Problem, IP: e.IP, Workload: e.Type}
	}
	return out, nil
}
