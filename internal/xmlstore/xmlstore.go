// Package xmlstore persists InvarNet-X artefacts in the XML formats the
// paper describes, one file per operation context (ProfileFile) whose root
// carries the context's (ip, type) once:
//
//   - the ARIMA performance model as the five-tuple (p, d, q, ip, type)
//     (§3.2) — extended with the fitted coefficients and thresholds so a
//     stored model is actually usable after reload;
//   - the invariant set as the three-tuple (I, ip, type) with I in matrix
//     (pair-list) format (§3.3);
//   - each problem signature as the four-tuple (binary tuple, problem
//     name, ip, workload type) (§3.3).
package xmlstore

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"invarnetx/internal/arima"
	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/stats"
)

// FormatVersion is the store format written by this build. Files carry it
// as a version attribute on the root element; files written before
// versioning carry none and decode as legacy (version 0).
const FormatVersion = 1

// ErrVersion marks a file written by a newer build than this one — the
// caller must not guess at its contents.
var ErrVersion = errors.New("xmlstore: unsupported store format version")

// checkVersion accepts the legacy unversioned format (0) and every version
// up to FormatVersion.
func checkVersion(v int) error {
	if v < 0 || v > FormatVersion {
		return fmt.Errorf("%w: %d (this build reads <= %d)", ErrVersion, v, FormatVersion)
	}
	return nil
}

// ProfileFile is one profile's store file: its scope (both empty for the
// zero context's profile), which LoadFrom routes the file by, then each
// trained artefact the profile holds and its signatures. A signature still
// writes its own ip and type, and they must equal the file's scope:
// LoadFrom refuses a file holding entries of another context.
type ProfileFile struct {
	XMLName    xml.Name         `xml:"profile"`
	Version    int              `xml:"version,attr"`
	IP         string           `xml:"ip,attr,omitempty"`
	Type       string           `xml:"type,attr,omitempty"`
	Model      *ModelFile       `xml:"performance-model"`
	Invariants *InvariantFile   `xml:"invariants"`
	Lifecycle  *LifecycleFile   `xml:"lifecycle"`
	Signatures []SignatureEntry `xml:"signature"`
}

// ModelFile is the persisted performance model: the paper's five-tuple (its
// ip and type are the profile's) plus everything needed to resume online
// detection.
type ModelFile struct {
	P int `xml:"p"`
	D int `xml:"d"` // written as 0: the model has no I, and Decode refuses any other
	Q int `xml:"q"`

	AR          []float64 `xml:"ar>coeff"`
	MA          []float64 `xml:"ma>coeff"`
	Intercept   float64   `xml:"intercept"`
	Sigma2      float64   `xml:"sigma2"`
	Rule        string    `xml:"threshold>rule"`
	Upper       float64   `xml:"threshold>upper"`
	Lower       float64   `xml:"threshold>lower"`
	Consecutive int       `xml:"threshold>consecutive"`
}

// EncodeModel converts a trained detector into its persistable form.
func EncodeModel(d *detect.Detector) *ModelFile {
	return &ModelFile{
		P: d.Model.Order.P, Q: d.Model.Order.Q,
		AR: d.Model.AR, MA: d.Model.MA,
		Intercept: d.Model.Intercept, Sigma2: d.Model.Sigma2,
		Rule: d.Rule.String(), Upper: d.Upper, Lower: d.Lower,
		Consecutive: d.Consecutive,
	}
}

// maxConsecutive bounds a stored detector's consecutive-anomaly count: a
// detector that needs more than 1024 consecutive anomalous samples will never
// alert within any realistic job.
const maxConsecutive = 1024

// Decode rebuilds the detector from its persisted form.
func (f ModelFile) Decode() (*detect.Detector, error) {
	var rule detect.Rule
	switch f.Rule {
	case detect.BetaMax.String():
		rule = detect.BetaMax
	case detect.MaxMin.String():
		rule = detect.MaxMin
	case detect.P95.String():
		rule = detect.P95
	default:
		return nil, fmt.Errorf("xmlstore: unknown threshold rule %q", f.Rule)
	}
	if f.P < 0 || f.D != 0 || f.Q < 0 {
		return nil, fmt.Errorf("xmlstore: order (%d,%d,%d) is not an ARIMA(p,0,q)", f.P, f.D, f.Q)
	}
	if len(f.AR) != f.P || len(f.MA) != f.Q {
		return nil, fmt.Errorf("xmlstore: coefficient counts (%d,%d) disagree with order (%d,%d)", len(f.AR), len(f.MA), f.P, f.Q)
	}
	// strconv reads "NaN" and "Inf" as numbers; a detector holding one never
	// alerts, and neither does one that needs no, negative or more than
	// maxConsecutive samples of evidence.
	if !stats.AllFinite(f.AR) || !stats.AllFinite(f.MA) || !stats.AllFinite([]float64{f.Intercept, f.Sigma2, f.Upper, f.Lower}) {
		return nil, errors.New("xmlstore: non-finite coefficient, intercept, variance or threshold")
	}
	if f.Sigma2 < 0 {
		return nil, fmt.Errorf("xmlstore: negative innovation variance %v", f.Sigma2)
	}
	if f.Consecutive < 1 || f.Consecutive > maxConsecutive {
		return nil, fmt.Errorf("xmlstore: threshold needs %d consecutive samples, outside [1,%d]", f.Consecutive, maxConsecutive)
	}
	if f.Upper < f.Lower {
		return nil, fmt.Errorf("xmlstore: upper threshold %v below lower %v", f.Upper, f.Lower)
	}
	return &detect.Detector{
		Model: &arima.Model{
			Order:     arima.Order{P: f.P, Q: f.Q},
			AR:        f.AR,
			MA:        f.MA,
			Intercept: f.Intercept,
			Sigma2:    f.Sigma2,
		},
		Rule:        rule,
		Upper:       f.Upper,
		Lower:       f.Lower,
		Consecutive: f.Consecutive,
	}, nil
}

// invariantPair is one invariant entry within InvariantFile.
type invariantPair struct {
	I     int     `xml:"i,attr"`
	J     int     `xml:"j,attr"`
	Value float64 `xml:"value,attr"`
}

// InvariantFile is the persisted invariant set: the paper's three-tuple
// (I, ip, type), its ip and type being the profile's.
type InvariantFile struct {
	Metrics int             `xml:"metrics"`
	Pairs   []invariantPair `xml:"matrix>pair"`
}

// EncodeInvariants converts an invariant set into its persistable form.
func EncodeInvariants(s *invariant.Set) *InvariantFile {
	f := &InvariantFile{Metrics: s.M}
	for _, p := range s.SortedPairs() {
		f.Pairs = append(f.Pairs, invariantPair{I: p.I, J: p.J, Value: s.Base[p]})
	}
	return f
}

// Decode rebuilds the invariant set.
func (f InvariantFile) Decode() (*invariant.Set, error) {
	if f.Metrics < 2 {
		return nil, fmt.Errorf("xmlstore: invariant file with %d metrics", f.Metrics)
	}
	base := make(map[invariant.Pair]float64, len(f.Pairs))
	for _, p := range f.Pairs {
		if p.I < 0 || p.J < 0 || p.I >= f.Metrics || p.J >= f.Metrics || p.I == p.J {
			return nil, fmt.Errorf("xmlstore: invalid invariant pair (%d,%d)", p.I, p.J)
		}
		// An association score lies in [0, 1]; the negated test also refuses NaN.
		if !(p.Value >= 0 && p.Value <= 1) {
			return nil, fmt.Errorf("xmlstore: invariant pair (%d,%d) has baseline %v outside [0, 1]", p.I, p.J, p.Value)
		}
		// One edge per unordered pair: a repeat, in either orientation, would
		// silently shorten the tuple the signatures were built on.
		key := invariant.Pair{I: min(p.I, p.J), J: max(p.I, p.J)}
		if _, dup := base[key]; dup {
			return nil, fmt.Errorf("xmlstore: invariant pair (%d,%d) repeated", key.I, key.J)
		}
		base[key] = p.Value
	}
	return invariant.NewSet(f.Metrics, base), nil
}

// SignatureEntry is the paper's four-tuple.
type SignatureEntry struct {
	Tuple   string `xml:"tuple"`
	Problem string `xml:"problem"`
	IP      string `xml:"ip"`
	Type    string `xml:"type"`
}

// Save writes v as indented XML with a header.
func Save(w io.Writer, v any) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// SaveFile writes v as XML to path atomically: the document is written and
// fsynced to a unique temporary file in the same directory, renamed over
// path, and the directory fsynced so the rename itself survives a power cut.
// A crash mid-write leaves either the old complete file or at worst a stray
// temporary — never a truncated store. Concurrent savers of the same path
// each rename a complete file; the last rename wins.
func SaveFile(path string, v any) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := Save(tmp, v); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns it
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
