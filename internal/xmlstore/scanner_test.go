package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math"
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

// TestScannerReads pins the accepted subset: what save writes and what a
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
		{"numeric entities as save writes them",
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

// hostile strings: everything save has to escape and the scanner to restore.
var hostile = []string{"", " ", `<&>"'`, "a\r\nb\rc\n", "\ttab\t", "😀 𐍈 日本", "]]>", "&amp;", "x  y", "\uFFFD"}

// The parts profileWith puts in a profile file.
const (
	withModel = 1 << iota
	withInvariants
	withLifecycle
	withSignatures
	withAll = 1<<iota - 1
)

// profileWith returns a profile file holding the given parts, carrying s
// wherever it has a string.
func profileWith(s string, parts int) ProfileFile {
	f := ProfileFile{Version: FormatVersion, IP: s, Type: "wl" + s}
	if parts&withModel != 0 {
		f.Model = EncodeModel(sampleDetector())
	}
	if parts&withInvariants != 0 {
		f.Invariants = EncodeInvariants(invariant.NewSet(5, map[invariant.Pair]float64{{I: 0, J: 1}: 0.91, {I: 2, J: 4}: 5e-324}))
	}
	if parts&withLifecycle != 0 {
		f.Lifecycle = &LifecycleFile{Generation: 3, Observed: 9,
			Edges: []LifecycleEdge{{I: 0, J: 1, State: s, Obs: 9, Viol: 2, Rate: 0.25, ShadowBase: 0.5}, {I: 2, J: 4, State: "live"}}}
	}
	if parts&withSignatures != 0 {
		db := signature.NewDB(f.Type, f.IP, 0)
		for i, tuple := range []string{"01101", "11000", ""} {
			tu, _ := signature.ParseTuple(tuple)
			db.Add(fmt.Sprintf("%s-%d", s, i/2), tu)
		}
		f.Signatures = signaturesOf(db)
	}
	return f
}

// savedFiles returns saved profile files carrying s wherever they have a
// string: one with every part and one with signatures only.
func savedFiles(t testing.TB, s string) [][]byte {
	t.Helper()
	return [][]byte{saved(t, profileWith(s, withAll)), saved(t, profileWith(s, withSignatures))}
}

// same is reflect.DeepEqual but for NaN, which a hostile file can put in any
// float field and which equals itself in neither reading: values that differ
// there compare by what save writes for them.
func same(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	x, errA := xml.Marshal(a)
	y, errB := xml.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// referenceEntries is the reflection-side reference LoadProfile's direct
// loop is held to: f's version checked and its signatures parsed in file
// order, a signature whose ip or type is not the root's or a malformed tuple
// rejecting the whole file. Merged one by one through DB.Merge into the
// signature base of the root's context, they are what the decoded database
// must hold.
func referenceEntries(f ProfileFile) ([]signature.Entry, error) {
	if err := checkVersion(f.Version); err != nil {
		return nil, err
	}
	out := make([]signature.Entry, len(f.Signatures))
	for i, e := range f.Signatures {
		if e.IP != f.IP || e.Type != f.Type {
			return nil, fmt.Errorf("xmlstore: signature %d of %s@%s does not belong to the file's %s@%s", i, e.Type, e.IP, f.Type, f.IP)
		}
		t, err := signature.ParseTuple(e.Tuple)
		if err != nil {
			return nil, fmt.Errorf("xmlstore: signature %d: %w", i, err)
		}
		out[i] = signature.Entry{Tuple: t, Problem: e.Problem, IP: e.IP, Workload: e.Type}
	}
	return out, nil
}

// checkAgainstStock is the differential oracle: whenever the scanner path
// accepts in, encoding/xml's own lexer accepts it and decodes the same struct;
// and the direct profile loop agrees with the reflection decode of the same
// bytes, on acceptance and on content: the same sections, and a database
// holding what the reflection decode's signatures give merged one by one
// through DB.Merge into the root's context's signature base.
func checkAgainstStock(t testing.TB, in []byte) {
	t.Helper()
	var f ProfileFile
	parsed, err := []signature.Entry(nil), decode(in, &f)
	if err == nil {
		var stock ProfileFile
		if err := xml.NewDecoder(bytes.NewReader(in)).Decode(&stock); err != nil {
			t.Fatalf("scanner accepts what encoding/xml refuses (%v):\n%q", err, in)
		}
		if !same(&f, &stock) {
			t.Fatalf("scanner and encoding/xml disagree on %q:\n got %#v\nwant %#v", in, &f, &stock)
		}
		parsed, err = referenceEntries(f)
	}
	got, db, directErr := decodeProfile(in)
	if (err == nil) != (directErr == nil) {
		t.Fatalf("profile file %q: direct loop err = %v, reflection err = %v", in, directErr, err)
	}
	if err != nil {
		return
	}
	ref := signature.NewDB(f.Type, f.IP, 0)
	for _, e := range parsed {
		ref.Merge(e.Problem, e.Tuple)
	}
	entries, want := db.Entries(), ref.Entries()
	f.XMLName, f.Signatures = xml.Name{}, nil
	if !same(&got, &f) || len(entries) != len(want) || len(entries) > 0 && !reflect.DeepEqual(entries, want) {
		t.Fatalf("profile file %q:\ndirect loop %+v %v\nreflection  %+v %v", in, got, entries, f, want)
	}
}

// handEdits are profile files no save wrote but encoding/xml reads: each
// pins one rule the direct loop has to share with the reflection decode.
var handEdits = []string{
	`<profile/>`,
	`<profile version=""><signature/></profile>`,
	`<profile version=" 1 "><signature><tuple/></signature></profile>`,
	`<profile version="x"></profile>`,
	`<profile version="2"></profile>`,
	`<signature-database version="1"></signature-database>`,
	// character data concatenates around comments and child elements
	`<profile ip="10.0.0.2"><signature><ip>10.<!-- c -->0.<b>no</b>0.2</ip><tuple>01<!-- c -->10<x>1</x></tuple><problem> p </problem></signature></profile>`,
	// a repeated scalar overwrites, unknown elements are skipped whole
	`<profile type="a"><type>b</type><extra><signature><tuple>1</tuple></signature></extra>` +
		`<signature><tuple>0</tuple><tuple>11</tuple><signature><tuple>x</tuple></signature><ip>n</ip><ip></ip><type>a</type></signature>stray</profile>`,
	`<profile><signature><tuple>01x</tuple></signature></profile>`,
	`<profile><signature><tuple> 01 </tuple></signature></profile>`,
	`<profile><signature><problem>a&amp;b` + "\r\n" + `</problem></signature></profile><!-- end -->`,
	`<profile><signature></signature></profile>trailing`,
	// a repeated section decodes into the same value: scalars overwrite, lists append
	`<profile><performance-model><p>1</p><ar><coeff>0.5</coeff></ar></performance-model><signature><tuple>1</tuple></signature>` +
		`<performance-model><p>2</p><ar><coeff>NaN</coeff></ar></performance-model><performance-model/></profile>`,
	// a self-closing section with an attribute, and one nested where no section belongs
	`<profile ip="n"><invariants x="1"/><lifecycle><edges><edge i="0" j="1" state="live"/></edges></lifecycle>` +
		`<extra><invariants><metrics>3</metrics></invariants></extra></profile>`,
	// a value a section cannot hold, and a section left open, fail the file
	`<profile><lifecycle><generation>-1</generation></lifecycle></profile>`,
	`<profile><performance-model><p>1</performance-model></profile>`,
	// a repeated <tuple> keeps the last text, parsed once: a bad first one is
	// overwritten, a bad last one refuses the file
	`<profile><signature><tuple>x</tuple><tuple>1</tuple></signature></profile>`,
	`<profile><signature><tuple>1</tuple><tuple>x</tuple></signature></profile>`,
	// a file repeating a signature holds it once
	`<profile><signature><tuple>01</tuple><problem>p</problem></signature><signature><tuple>01</tuple><problem>p</problem></signature>` +
		`<signature><tuple>01</tuple><problem>q</problem></signature></profile>`,
	// the invariants section's numbers: white space trimmed, no text 0, no
	// attribute 0, a sign allowed; a hex int, an int or a float out of range
	// refused
	`<profile><invariants><metrics>3</metrics><matrix><pair i=" 3 " j="1" value="0.5"/></matrix></invariants></profile>`,
	`<profile><invariants><metrics></metrics><matrix><pair i="" j="1" value=""/></matrix></invariants></profile>`,
	`<profile><invariants><metrics> 4 </metrics><matrix><pair i="0" j="1"/><pair/></matrix></invariants></profile>`,
	`<profile><invariants><metrics>+3</metrics><matrix><pair i="+1" j="-0" value="+.5"/></matrix></invariants></profile>`,
	`<profile><invariants><matrix><pair i="0x1" j="1" value="0.5"/></matrix></invariants></profile>`,
	`<profile><invariants><matrix><pair i="99999999999999999999" j="1" value="0.5"/></matrix></invariants></profile>`,
	`<profile><invariants><matrix><pair i="0" j="1" value="1e400"/></matrix></invariants></profile>`,
	`<profile><invariants><metrics> </metrics></invariants></profile>`,
	`<profile><invariants><metrics>3<!-- c -->1<b>7</b></metrics></invariants></profile>`,
	// pairs of two <matrix> elements (and of a repeated section) append; a
	// <pair> outside <matrix>, or nested in a <pair>, is skipped; a repeated
	// <metrics> overwrites; unknown attributes and children are ignored
	`<profile><invariants x="1"><metrics>3</metrics><matrix n="1"><pair i="0" j="1" value="0.5" w="?"/>text</matrix>` +
		`<pair i="7" j="8"/><metrics>5</metrics><matrix><metrics>9</metrics><pair i="1" j="2" value="0.25"><pair i="9"/><x>y</x></pair></matrix></invariants>` +
		`<invariants><matrix><matrix><pair i="3"/></matrix><pair i="2" j="3" value="1"/></matrix></invariants></profile>`,
	`<profile><invariants><matrix><pair i="0" j="1" value="0.5"><x i="bad"/></pair></matrix></invariants></profile>`,
	`<profile><invariants><matrix><pair i="0" j="1" value="0.5"></matrix></invariants></profile>`,
	`<profile><invariants><metrics>3</metrics><pair i="0" j="1" value="0.5">4</pair></invariants></profile>`,
}

func TestProfileLoopMatchesReflection(t *testing.T) {
	for _, doc := range handEdits {
		checkAgainstStock(t, []byte(doc))
	}
	for _, s := range hostile {
		for parts := 0; parts <= withAll; parts++ {
			checkAgainstStock(t, saved(t, profileWith(s, parts)))
		}
	}
	// And it is not vacuous: the repeated-scalar document decodes, to this,
	got, db, err := decodeProfile([]byte(handEdits[7]))
	want := []signature.Entry{{Tuple: signature.Tuple{true, true}, Workload: "a"}}
	if err != nil || got.IP != "" || got.Type != "a" || !reflect.DeepEqual(db.Entries(), want) {
		t.Fatalf("decoded (%q, %q) %v, %v; want (\"\", \"a\") %v", got.IP, got.Type, db, err, want)
	}
	// the repeated section to the one model both readings merge it into,
	got, _, err = decodeProfile([]byte(handEdits[12]))
	if err != nil || got.Model == nil || got.Model.P != 2 || len(got.Model.AR) != 2 || !math.IsNaN(got.Model.AR[1]) {
		t.Fatalf("repeated section decoded to %+v, %v; want p 2, ar [0.5 NaN]", got.Model, err)
	}
	// a repeated tuple to its last text,
	_, db, err = decodeProfile([]byte(handEdits[16]))
	if err != nil || db.Len() != 1 || db.Entries()[0].Tuple.String() != "1" {
		t.Fatalf("repeated tuple decoded to %v, %v; want one tuple 1", db, err)
	}
	// and the invariants section, two matrices and a repeat deep, to these.
	got, _, err = decodeProfile([]byte(handEdits[28]))
	wantPairs := []invariantPair{{I: 0, J: 1, Value: 0.5}, {I: 1, J: 2, Value: 0.25}, {I: 2, J: 3, Value: 1}}
	if err != nil || got.Invariants == nil || got.Invariants.Metrics != 5 || !reflect.DeepEqual(got.Invariants.Pairs, wantPairs) {
		t.Fatalf("invariants decoded to %+v, %v; want metrics 5, pairs %v", got.Invariants, err, wantPairs)
	}
}

// FuzzLoad holds every xmlstore read path to the rule for decoders of bytes
// the program did not write — error, never panic or over-allocate — and the
// scanner, the direct invariants and signature loops and the packed text
// merge to their contract with encoding/xml and DB.Merge (see
// checkAgainstStock).
func FuzzLoad(f *testing.F) {
	for _, s := range hostile {
		for _, doc := range savedFiles(f, s) {
			f.Add(doc)
		}
		f.Add([]byte("<a t='" + s + "'>" + s + "</a>"))
	}
	for parts := 0; parts <= withAll; parts++ {
		f.Add(saved(f, profileWith("x", parts)))
	}
	for _, doc := range handEdits {
		f.Add([]byte(doc))
	}
	whole := saved(f, profileWith("t", withAll))
	f.Add(whole[:len(whole)/2])
	f.Add(bytes.Replace(whole, []byte("<invariants>"), []byte(`<extra-section v="1"><edge i="0"/><signature/></extra-section><invariants>`), 1))
	f.Add([]byte(`<a>&#x0;</a>`))
	f.Add([]byte(`<?xml version="1.0" encoding="latin1"?><!DOCTYPE a><a xmlns:x="y"><![CDATA[]]></a>`))
	f.Add([]byte(`<profile><invariants><metrics>3</metrics><matrix><pair i="0" j="1" value="NaN"/><pair i="1" j="0" value="7"/></matrix></invariants></profile>`))
	// Fill encoding/xml's per-type caches before anything is measured.
	for _, doc := range savedFiles(f, "warm") {
		checkAgainstStock(f, doc)
	}
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, in []byte) {
		// A handful of decodes, half of them through encoding/xml's own
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

// Property: every struct save can write loads back equal through the scanner.
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
		model := &ModelFile{P: rng.Intn(5), D: rng.Intn(3), Q: rng.Intn(5),
			AR: floats(rng), MA: floats(rng), Intercept: rng.Normal(0, 1), Sigma2: rng.Float64(), Rule: str(),
			Upper: rng.Float64(), Lower: -rng.Float64(), Consecutive: rng.Intn(9)}
		inv := &InvariantFile{Metrics: rng.Intn(30)}
		life := &LifecycleFile{Generation: uint64(rng.Intn(1 << 30)), Observed: int64(rng.Intn(1000))}
		prof := ProfileFile{Version: rng.Intn(3), IP: str(), Type: str()}
		for n := rng.Intn(5); n > 0; n-- {
			inv.Pairs = append(inv.Pairs, invariantPair{I: rng.Intn(30), J: rng.Intn(30), Value: rng.Float64()})
			prof.Signatures = append(prof.Signatures, SignatureEntry{Tuple: str(), Problem: str(), IP: str(), Type: str()})
			life.Edges = append(life.Edges, LifecycleEdge{I: rng.Intn(30), J: rng.Intn(30), State: str(), Obs: int64(rng.Intn(99)), Rate: rng.Float64(), ShadowBase: rng.Float64()})
		}
		// Each section present or absent.
		if rng.Bernoulli(0.7) {
			prof.Model = model
		}
		if rng.Bernoulli(0.7) {
			prof.Invariants = inv
		}
		if rng.Bernoulli(0.7) {
			prof.Lifecycle = life
		}
		var buf bytes.Buffer
		if err := save(&buf, prof); err != nil {
			t.Errorf("seed %d: save: %v", seed, err)
			return false
		}
		var back ProfileFile
		if err := load(bytes.NewReader(buf.Bytes()), &back); err != nil {
			t.Errorf("seed %d: load: %v\n%s", seed, err, buf.Bytes())
			return false
		}
		// Load records the root element's name; save needs none.
		prof.XMLName = back.XMLName
		if !reflect.DeepEqual(prof, back) {
			t.Errorf("seed %d: profile came back changed:\nsaved  %#v\nloaded %#v\n%s", seed, prof, back, buf.Bytes())
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSignatureFileDecodeAllocs pins the allocation shape of the direct
// loop on a profile file: per entry, only the problem name when it differs
// from the entry before — the tuple text packs into the database's columns,
// which are sized from the file up front — whatever the file's size; per
// file, a constant, most of it the reflection-decoded sections. Boxing each
// of an entry's twenty tokens into xml.Token was ~43 % of the restore
// profile before the scanner had a by-value next, and the tuple, parsed into
// a []bool and packed again, was most of what remained.
func TestSignatureFileDecodeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		db := signature.NewDB("wordcount", "10.0.0.2", 0)
		rng := stats.NewRNG(int64(n))
		for i := 0; i < n; i++ {
			tuple := make(signature.Tuple, 120)
			for k := range tuple {
				tuple[k] = rng.Bernoulli(0.2)
			}
			db.Add(fmt.Sprintf("fault-%d", i), tuple)
		}
		f := profileWith("10.0.0.2", withModel|withInvariants|withLifecycle)
		f.Type, f.Signatures = "wordcount", signaturesOf(db)
		data := saved(t, f)
		return testing.AllocsPerRun(10, func() {
			if _, db, err := decodeProfile(data); err != nil || db.Len() != n {
				t.Fatalf("decoded %v of %d entries: %v", db, n, err)
			}
		})
	}
	small, large := allocs(200), allocs(4000)
	perEntry := (large - small) / 3800
	t.Logf("allocations: %.0f at 200 entries, %.0f at 4000: %.3f per entry, %.0f per file", small, large, perEntry, small-200*perEntry)
	if perEntry > 1.1 {
		t.Errorf("allocations per entry = %.3f; want <= 1 (the distinct problem name) plus a per-file constant", perEntry)
	}
}

// TestInvariantPairDecodeAllocs pins the invariants section's loop the same
// way: a pair's three numbers parse from the attribute bytes in place, so
// the only allocations that grow with the pair count are the amortised
// growth of the pair list.
func TestInvariantPairDecodeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		base := make(map[invariant.Pair]float64, n)
		rng := stats.NewRNG(int64(n))
		for i := 0; len(base) < n; i++ {
			a, b := rng.Intn(60), rng.Intn(60)
			if a != b {
				base[invariant.Pair{I: min(a, b), J: max(a, b)}] = rng.Float64()
			}
		}
		data := saved(t, ProfileFile{Version: FormatVersion, IP: "10.0.0.2", Type: "wordcount", Invariants: EncodeInvariants(invariant.NewSet(60, base))})
		return testing.AllocsPerRun(10, func() {
			if f, _, err := decodeProfile(data); err != nil || len(f.Invariants.Pairs) != n {
				t.Fatalf("decoded %v: %v", f.Invariants, err)
			}
		})
	}
	small, large := allocs(90), allocs(900)
	perPair := (large - small) / 810
	t.Logf("allocations: %.0f at 90 pairs, %.0f at 900: %.4f per pair", small, large, perPair)
	if perPair > 0.1 {
		t.Errorf("allocations per pair = %.4f; want <= 0.1 (the pair list's growth, amortised)", perPair)
	}
}
