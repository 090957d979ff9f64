// Package xmlstore persists InvarNet-X artefacts in the XML formats the
// paper describes:
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
	"invarnetx/internal/signature"
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

// ModelFile is the persisted performance model: the paper's five-tuple plus
// everything needed to resume online detection.
type ModelFile struct {
	XMLName xml.Name `xml:"performance-model"`
	Version int      `xml:"version,attr"`
	P       int      `xml:"p"`
	D       int      `xml:"d"`
	Q       int      `xml:"q"`
	IP      string   `xml:"ip"`
	Type    string   `xml:"type"`

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
func EncodeModel(d *detect.Detector, ip, workloadType string) ModelFile {
	return ModelFile{
		Version: FormatVersion,
		P:       d.Model.Order.P, D: d.Model.Order.D, Q: d.Model.Order.Q,
		IP: ip, Type: workloadType,
		AR: d.Model.AR, MA: d.Model.MA,
		Intercept: d.Model.Intercept, Sigma2: d.Model.Sigma2,
		Rule: d.Rule.String(), Upper: d.Upper, Lower: d.Lower,
		Consecutive: d.Consecutive,
	}
}

// Decode rebuilds the detector from its persisted form.
func (f ModelFile) Decode() (*detect.Detector, error) {
	if err := checkVersion(f.Version); err != nil {
		return nil, err
	}
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
	if f.P < 0 || f.D < 0 || f.Q < 0 {
		return nil, fmt.Errorf("xmlstore: invalid order (%d,%d,%d)", f.P, f.D, f.Q)
	}
	if len(f.AR) != f.P || len(f.MA) != f.Q {
		return nil, fmt.Errorf("xmlstore: coefficient counts (%d,%d) disagree with order (%d,%d)", len(f.AR), len(f.MA), f.P, f.Q)
	}
	// strconv reads "NaN" and "Inf" as numbers; a detector holding one never
	// alerts, and neither does one that needs no or negative evidence.
	if !stats.AllFinite(f.AR) || !stats.AllFinite(f.MA) || !stats.AllFinite([]float64{f.Intercept, f.Sigma2, f.Upper, f.Lower}) {
		return nil, errors.New("xmlstore: non-finite coefficient, intercept, variance or threshold")
	}
	if f.Sigma2 < 0 {
		return nil, fmt.Errorf("xmlstore: negative innovation variance %v", f.Sigma2)
	}
	if f.Consecutive < 1 {
		return nil, fmt.Errorf("xmlstore: threshold needs %d consecutive samples", f.Consecutive)
	}
	if f.Upper < f.Lower {
		return nil, fmt.Errorf("xmlstore: upper threshold %v below lower %v", f.Upper, f.Lower)
	}
	return &detect.Detector{
		Model: &arima.Model{
			Order:     arima.Order{P: f.P, D: f.D, Q: f.Q},
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
// (I, ip, type).
type InvariantFile struct {
	XMLName xml.Name        `xml:"invariants"`
	Version int             `xml:"version,attr"`
	IP      string          `xml:"ip"`
	Type    string          `xml:"type"`
	Metrics int             `xml:"metrics"`
	Pairs   []invariantPair `xml:"matrix>pair"`
}

// EncodeInvariants converts an invariant set into its persistable form.
func EncodeInvariants(s *invariant.Set, ip, workloadType string) InvariantFile {
	f := InvariantFile{Version: FormatVersion, IP: ip, Type: workloadType, Metrics: s.M}
	for _, p := range s.SortedPairs() {
		f.Pairs = append(f.Pairs, invariantPair{I: p.I, J: p.J, Value: s.Base[p]})
	}
	return f
}

// Decode rebuilds the invariant set.
func (f InvariantFile) Decode() (*invariant.Set, error) {
	if err := checkVersion(f.Version); err != nil {
		return nil, err
	}
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

// SignatureFile is the persisted signature database of one profile. IP and
// Type are the profile's scope (both empty for the global profile) and what
// LoadFrom routes the file by.
type SignatureFile struct {
	XMLName xml.Name         `xml:"signature-database"`
	Version int              `xml:"version,attr"`
	IP      string           `xml:"ip,omitempty"`
	Type    string           `xml:"type,omitempty"`
	Entries []SignatureEntry `xml:"signature"`
}

// EncodeSignaturesFor converts a signature database into its persistable
// form, stamped at file level with the owning profile's scope (both empty for
// the global profile).
func EncodeSignaturesFor(db *signature.DB, ip, workloadType string) SignatureFile {
	f := SignatureFile{Version: FormatVersion, IP: ip, Type: workloadType}
	for _, e := range db.Entries() {
		f.Entries = append(f.Entries, SignatureEntry{
			Tuple: e.Tuple.String(), Problem: e.Problem, IP: e.IP, Type: e.Workload,
		})
	}
	return f
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

// decode parses the XML document data into v. It is lexed in memory by the
// store's own scanner; v's struct tags are the schema.
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

// SaveFile writes v as XML to path atomically: the document is written and
// fsynced to a unique temporary file in the same directory, then renamed
// over path. A crash mid-write leaves either the old complete file or at
// worst a stray temporary — never a truncated store. Concurrent savers of
// the same path each rename a complete file; the last rename wins.
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
	return nil
}

// LoadFile parses the XML file at path into v.
func LoadFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return decode(data, v)
}
