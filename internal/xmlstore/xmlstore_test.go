package xmlstore

import (
	"bytes"
	"encoding/xml"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"invarnetx/internal/arima"
	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// decode parses the XML document data into v by reflection: lexed in memory
// by the store's own scanner, v's struct tags the schema. It is the reference
// FuzzLoad holds LoadProfile's direct loop to.
func decode(data []byte, v any) error {
	s := &scanner{buf: data}
	if err := xml.NewTokenDecoder(s).Decode(v); err != nil {
		return err
	}
	// Decode stops at the root's end tag; only comments and white space may
	// follow it.
	_, err := s.next()
	return err
}

// load decodes what save wrote to a buffer, or a document spelled out in a
// test, by the reflection decode over the store's scanner.
func load(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return decode(data, v)
}

func sampleDetector() *detect.Detector {
	return &detect.Detector{
		Model: &arima.Model{
			Order:     arima.Order{P: 2, Q: 1},
			AR:        []float64{0.5, -0.2},
			MA:        []float64{0.3},
			Intercept: 0.01,
			Sigma2:    0.0004,
		},
		Rule:        detect.BetaMax,
		Upper:       0.12,
		Lower:       0.001,
		Consecutive: 3,
	}
}

// signaturesOf is db's entries as a profile file stores them.
func signaturesOf(db *signature.DB) []SignatureEntry {
	var out []SignatureEntry
	for _, e := range db.Entries() {
		out = append(out, SignatureEntry{Tuple: e.Tuple.String(), Problem: e.Problem, IP: e.IP, Type: e.Workload})
	}
	return out
}

// saved is f as save writes it.
func saved(t testing.TB, f ProfileFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestModelRoundTrip(t *testing.T) {
	d := sampleDetector()
	doc := saved(t, ProfileFile{Version: FormatVersion, IP: "10.0.0.2", Type: "wordcount", Model: EncodeModel(d)})
	for _, want := range []string{`<profile version="1" ip="10.0.0.2" type="wordcount">`, "<performance-model>"} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("missing %s:\n%s", want, doc)
		}
	}
	back, _, err := decodeProfile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != "10.0.0.2" || back.Type != "wordcount" || back.Invariants != nil || back.Lifecycle != nil {
		t.Errorf("context lost or sections invented: %+v", back)
	}
	d2, err := back.Model.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Model.Order != d.Model.Order {
		t.Errorf("order = %v, want %v", d2.Model.Order, d.Model.Order)
	}
	if math.Abs(d2.Model.AR[0]-0.5) > 1e-12 || math.Abs(d2.Model.MA[0]-0.3) > 1e-12 {
		t.Errorf("coefficients lost: %+v", d2.Model)
	}
	if d2.Rule != detect.BetaMax || d2.Upper != 0.12 || d2.Consecutive != 3 {
		t.Errorf("thresholds lost: %+v", d2)
	}
}

func TestModelDecodeValidation(t *testing.T) {
	f := EncodeModel(sampleDetector())
	f.Rule = "nosuch"
	if _, err := f.Decode(); err == nil {
		t.Error("unknown rule should fail decode")
	}
	f = EncodeModel(sampleDetector())
	f.AR = f.AR[:1] // inconsistent with P=2
	if _, err := f.Decode(); err == nil {
		t.Error("coefficient/order mismatch should fail decode")
	}
	f = EncodeModel(sampleDetector())
	f.P = -1
	if _, err := f.Decode(); err == nil {
		t.Error("negative order should fail decode")
	}
}

// TestModelDecodeRejectsDeadDetector: strconv reads "NaN" and "Inf" as
// numbers, so a hand-edited or damaged model file used to load into a
// detector that can never alert. Each of these decoded silently before.
func TestModelDecodeRejectsDeadDetector(t *testing.T) {
	doc := `<performance-model><p>0</p><d>0</d><q>0</q>
<intercept>0</intercept><sigma2>-1</sigma2>
<threshold><rule>max-min</rule><upper>NaN</upper><lower>Inf</lower><consecutive>-3</consecutive></threshold></performance-model>`
	var f ModelFile
	if err := load(strings.NewReader(doc), &f); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.Upper) || !math.IsInf(f.Lower, 1) || f.Consecutive != -3 || f.Sigma2 != -1 {
		t.Fatalf("test setup: file read as %+v", f)
	}
	if d, err := f.Decode(); err == nil {
		t.Errorf("NaN/Inf thresholds, negative sigma2 and consecutive decoded into %+v", d)
	}
	for name, damage := range map[string]func(*ModelFile){
		"NaN AR coefficient":        func(f *ModelFile) { f.AR[1] = math.NaN() },
		"Inf MA coefficient":        func(f *ModelFile) { f.MA[0] = math.Inf(-1) },
		"NaN intercept":             func(f *ModelFile) { f.Intercept = math.NaN() },
		"Inf sigma2":                func(f *ModelFile) { f.Sigma2 = math.Inf(1) },
		"negative sigma2":           func(f *ModelFile) { f.Sigma2 = -1e-9 },
		"NaN upper":                 func(f *ModelFile) { f.Upper = math.NaN() },
		"Inf lower":                 func(f *ModelFile) { f.Lower = math.Inf(-1) },
		"consecutive 0":             func(f *ModelFile) { f.Consecutive = 0 },
		"consecutive above 1024":    func(f *ModelFile) { f.Consecutive = 1025 },
		"d 1":                       func(f *ModelFile) { f.D = 1 },
		"upper below lower":         func(f *ModelFile) { f.Upper, f.Lower = 0.1, 0.2 },
		"control: undamaged":        nil,
		"control: equal band":       func(f *ModelFile) { f.Upper, f.Lower = 0.2, 0.2 },
		"control: consecutive 1024": func(f *ModelFile) { f.Consecutive = 1024 },
	} {
		f := EncodeModel(sampleDetector())
		if damage != nil {
			damage(f)
		}
		_, err := f.Decode()
		if control := strings.HasPrefix(name, "control"); control != (err == nil) {
			t.Errorf("%s: Decode err = %v", name, err)
		}
	}
}

// TestInvariantDecodeRejectsNonFiniteAndRepeatedPairs: a NaN baseline can
// never be violated, and a pair listed twice (in either orientation) made a
// set one edge shorter than the tuples of the signatures built on it.
func TestInvariantDecodeRejectsNonFiniteAndRepeatedPairs(t *testing.T) {
	doc := `<invariants><metrics>3</metrics>
<matrix><pair i="0" j="1" value="NaN"/><pair i="1" j="0" value="7"/></matrix></invariants>`
	var f InvariantFile
	if err := load(strings.NewReader(doc), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Pairs) != 2 || !math.IsNaN(f.Pairs[0].Value) {
		t.Fatalf("test setup: file read as %+v", f)
	}
	if set, err := f.Decode(); err == nil {
		t.Errorf("NaN baseline and a repeated pair decoded into %d edges %v", set.Len(), set.Base)
	}
	for name, pairs := range map[string][]invariantPair{
		"NaN baseline":           {{I: 0, J: 1, Value: math.NaN()}},
		"Inf baseline":           {{I: 0, J: 1, Value: math.Inf(1)}},
		"baseline above 1":       {{I: 0, J: 1, Value: 7}},
		"negative baseline":      {{I: 0, J: 1, Value: -0.1}},
		"pair repeated":          {{I: 0, J: 1, Value: 0.5}, {I: 0, J: 1, Value: 0.5}},
		"pair repeated reversed": {{I: 0, J: 2, Value: 0.5}, {I: 2, J: 0, Value: 0.6}},
		"control: bounds":        {{I: 0, J: 1, Value: 0}, {I: 2, J: 1, Value: 1}},
	} {
		_, err := InvariantFile{Metrics: 3, Pairs: pairs}.Decode()
		if control := strings.HasPrefix(name, "control"); control != (err == nil) {
			t.Errorf("%s: Decode err = %v", name, err)
		}
	}
}

func TestInvariantRoundTrip(t *testing.T) {
	s := invariant.NewSet(5, map[invariant.Pair]float64{
		{I: 0, J: 1}: 0.91,
		{I: 2, J: 4}: 0.55,
	})
	back, _, err := decodeProfile(saved(t, ProfileFile{IP: "10.0.0.3", Type: "sort", Invariants: EncodeInvariants(s)}))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Invariants.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if s2.M != 5 || s2.Len() != 2 {
		t.Fatalf("decoded set: M=%d len=%d", s2.M, s2.Len())
	}
	if s2.Base[invariant.Pair{I: 0, J: 1}] != 0.91 {
		t.Errorf("baseline lost: %v", s2.Base)
	}
}

func TestInvariantDecodeValidation(t *testing.T) {
	f := InvariantFile{Metrics: 1}
	if _, err := f.Decode(); err == nil {
		t.Error("too few metrics should fail")
	}
	f = InvariantFile{Metrics: 3, Pairs: []invariantPair{{I: 0, J: 3, Value: 0.5}}}
	if _, err := f.Decode(); err == nil {
		t.Error("out-of-range pair should fail")
	}
	f = InvariantFile{Metrics: 3, Pairs: []invariantPair{{I: 1, J: 1, Value: 0.5}}}
	if _, err := f.Decode(); err == nil {
		t.Error("diagonal pair should fail")
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	db := signature.NewDB("wordcount", "10.0.0.2")
	tu, _ := signature.ParseTuple("01101")
	db.Add("cpu-hog", tu)
	tu2, _ := signature.ParseTuple("11000")
	db.Add("mem-hog", tu2)

	_, back, err := decodeProfile(saved(t, ProfileFile{IP: "10.0.0.2", Type: "wordcount", Signatures: signaturesOf(db)}))
	if err != nil {
		t.Fatal(err)
	}
	es := back.Entries()
	if len(es) != 2 {
		t.Fatalf("decoded %d signatures", len(es))
	}
	if es[0].Problem != "cpu-hog" || es[0].Tuple.String() != "01101" || es[0].IP != "10.0.0.2" || es[0].Workload != "wordcount" {
		t.Errorf("entry 0 = %+v", es[0])
	}
}

// TestSignatureDecodeRestoresRetrieval: a restore merges every entry it read
// into a database of the file's own, which a fresh profile adopts whole, so
// that database must answer a filtered query (unmasked Jaccard with MinScore
// > 0) exactly like the database that was persisted.
func TestSignatureDecodeRestoresRetrieval(t *testing.T) {
	db := signature.NewDB("wordcount", "10.0.0.2")
	tu, _ := signature.ParseTuple("0110100011")
	db.Add("cpu-hog", tu)
	tu2, _ := signature.ParseTuple("1100000000")
	db.Add("mem-hog", tu2)

	_, restored, err := decodeProfile(saved(t, ProfileFile{IP: "10.0.0.2", Type: "wordcount", Signatures: signaturesOf(db)}))
	if err != nil {
		t.Fatal(err)
	}
	db2 := signature.NewDB("wordcount", "10.0.0.2")
	db2.MinScore = 0.5
	db2.MergeFrom(restored)
	got, err := db2.MatchMasked(tu, nil, "10.0.0.2", "wordcount", signature.Jaccard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Problem != "cpu-hog" || got[0].Score != 1 {
		t.Fatalf("restored match = %+v, want exact cpu-hog at 1", got)
	}
	if db2.Len() != 2 {
		t.Errorf("restored %d entries, want 2", db2.Len())
	}
}

func TestSignatureDecodeValidation(t *testing.T) {
	f := ProfileFile{IP: "i", Type: "t", Signatures: []SignatureEntry{{Tuple: "01x", Problem: "p", IP: "i", Type: "t"}}}
	if _, _, err := decodeProfile(saved(t, f)); err == nil {
		t.Error("invalid tuple should fail decode")
	}
}

// TestLoadProfileRefusesForeignSignature: a profile file is one context's,
// the one its root names. A signature naming another context — here the
// second, on another node — fails the whole file, and the error names both
// contexts.
func TestLoadProfileRefusesForeignSignature(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile-wordcount-10.0.0.2.xml")
	f := ProfileFile{Version: FormatVersion, IP: "10.0.0.2", Type: "wordcount", Signatures: []SignatureEntry{
		{Tuple: "0110", Problem: "cpu-hog", IP: "10.0.0.2", Type: "wordcount"},
		{Tuple: "1100", Problem: "mem-hog", IP: "10.0.0.3", Type: "wordcount"},
	}}
	if err := SaveFile(path, f); err != nil {
		t.Fatal(err)
	}
	_, db, err := LoadProfile(path)
	if err == nil || db != nil {
		t.Fatalf("LoadProfile = %v, %v; want the file refused", db, err)
	}
	for _, ctx := range []string{"wordcount@10.0.0.3", "wordcount@10.0.0.2", "signature 1"} {
		if !strings.Contains(err.Error(), ctx) {
			t.Errorf("error %q does not name %s", err, ctx)
		}
	}
	// The same file with the second signature on the root's node loads whole.
	f.Signatures[1].IP = "10.0.0.2"
	if err := SaveFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, db, err := LoadProfile(path); err != nil || db.Len() != 2 {
		t.Fatalf("LoadProfile of one context's file = %v, %v; want 2 signatures", db, err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.xml")
	f := ProfileFile{Version: FormatVersion, IP: "10.0.0.4", Type: "grep", Model: EncodeModel(sampleDetector())}
	if err := SaveFile(path, f); err != nil {
		t.Fatal(err)
	}
	back, _, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != "10.0.0.4" || back.Type != "grep" || back.Model == nil {
		t.Errorf("file round trip lost context: %+v", back)
	}
	if _, _, err := LoadProfile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing file should error")
	}
}

// Property: any invariant set round-trips through the XML form unchanged.
func TestInvariantRoundTripProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		rng := stats.NewRNG(seed)
		m := 2 + int(mRaw%10)
		base := make(map[invariant.Pair]float64)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if rng.Bernoulli(0.4) {
					base[invariant.Pair{I: i, J: j}] = rng.Float64()
				}
			}
		}
		set := invariant.NewSet(m, base)
		back, _, err := decodeProfile(saved(t, ProfileFile{IP: "ip", Type: "wl", Invariants: EncodeInvariants(set)}))
		if err != nil {
			return false
		}
		got, err := back.Invariants.Decode()
		if err != nil {
			return false
		}
		if got.M != set.M || got.Len() != set.Len() {
			return false
		}
		for p, v := range set.Base {
			if got.Base[p] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any signature database round-trips through the XML form. (A
// database built with Merge: a file's repeated signature loads once.)
func TestSignatureRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		db := signature.NewDB("wordcount", "10.0.0.2")
		n := int(nRaw % 12)
		for i := 0; i < n; i++ {
			tu := make(signature.Tuple, 5+rng.Intn(10))
			for k := range tu {
				tu[k] = rng.Bernoulli(0.3)
			}
			db.Merge(string(rune('a'+i%4)), tu)
		}
		_, back, err := decodeProfile(saved(t, ProfileFile{IP: "10.0.0.2", Type: "wordcount", Signatures: signaturesOf(db)}))
		if err != nil {
			return false
		}
		got, want := back.Entries(), db.Entries()
		if len(got) != len(want) {
			return false
		}
		for i, e := range got {
			if e.Problem != want[i].Problem || e.Tuple.String() != want[i].Tuple.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
