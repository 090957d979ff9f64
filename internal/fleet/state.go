package fleet

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"invarnetx/internal/signature"
	"invarnetx/internal/xmlstore"
)

// stateFile is fleet-state.xml, the persisted peer-replication state of one
// daemon: its own origin identity and next sequence number, the version
// vector of everything applied so far, and the replicated log itself. A
// restart that reloads it resumes anti-entropy incrementally — the first
// sync round after boot ships only what each peer is genuinely missing, not
// the whole database again.
type stateFile struct {
	XMLName xml.Name `xml:"fleet-state"`
	Version int      `xml:"version,attr"`
	Self    string   `xml:"self"`
	NextSeq uint64   `xml:"next-seq"`
	Vector  []clock  `xml:"vector>clock"`
	Records []Record `xml:"log>record"`
}

// clock is one origin's high-water mark in the persisted version vector.
type clock struct {
	Origin string `xml:"origin,attr"`
	Seq    uint64 `xml:"seq,attr"`
}

// validate checks the file for structural damage before any of it is
// applied: version compatibility, in-range sequence numbers, parseable
// tuples, and a vector consistent with the log it claims to cover.
func (f stateFile) validate() error {
	if err := xmlstore.CheckVersion(f.Version); err != nil {
		return err
	}
	clocks := make(map[string]uint64, len(f.Vector))
	for i, c := range f.Vector {
		if c.Origin == "" {
			return fmt.Errorf("fleet: state clock %d has no origin", i)
		}
		if _, dup := clocks[c.Origin]; dup {
			return fmt.Errorf("fleet: state vector repeats origin %q", c.Origin)
		}
		clocks[c.Origin] = c.Seq
	}
	for i, r := range f.Records {
		if r.Origin == "" {
			return fmt.Errorf("fleet: state record %d has no origin", i)
		}
		if r.Seq == 0 {
			return fmt.Errorf("fleet: state record %d (origin %q) has sequence 0 (sequences start at 1)", i, r.Origin)
		}
		if high, ok := clocks[r.Origin]; !ok || r.Seq > high {
			return fmt.Errorf("fleet: state record %d (origin %q seq %d) exceeds its vector clock", i, r.Origin, r.Seq)
		}
		if _, err := signature.ParseTuple(r.Tuple); err != nil {
			return fmt.Errorf("fleet: state record %d: %w", i, err)
		}
	}
	if f.Self != "" && f.NextSeq > 0 {
		// The self clock must cover every locally originated record, or a
		// reloaded daemon would re-issue sequence numbers it already shipped.
		if high := clocks[f.Self]; high >= f.NextSeq {
			return fmt.Errorf("fleet: state next-seq %d behind self clock %d", f.NextSeq, high)
		}
	}
	return nil
}

// file snapshots the store into its persisted form: the vector sorted by
// origin, the log in log order.
func (s *Store) file() stateFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := stateFile{
		Version: xmlstore.FormatVersion,
		Self:    s.self,
		NextSeq: s.nextSeq,
		Records: slices.Clone(s.log),
	}
	for o, seq := range s.vector {
		f.Vector = append(f.Vector, clock{Origin: o, Seq: seq})
	}
	sort.Slice(f.Vector, func(a, b int) bool { return f.Vector[a].Origin < f.Vector[b].Origin })
	return f
}

// restore loads a validated state file into the store of a booting daemon:
// its own sequence continues (no reissued seqs) and its clocks resume where
// they stopped.
func (s *Store) restore(f *stateFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.NextSeq > s.nextSeq {
		s.nextSeq = f.NextSeq
	}
	for _, c := range f.Vector {
		if c.Seq > s.vector[c.Origin] {
			s.vector[c.Origin] = c.Seq
		}
	}
	for _, r := range f.Records {
		s.keepAhead(r)
		s.log = append(s.log, r)
	}
}

// SaveState persists the replication state to path atomically, creating its
// directory — the drain-time counterpart of LoadState.
func (f *Fleet) SaveState(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return xmlstore.SaveFile(path, f.store.file())
}

// LoadState restores the replication state saved at path into a fleet that
// has not exchanged yet, and reinstalls every restored record through Apply
// (the profile files usually already hold them; Apply is idempotent either
// way). A missing file is a cold boot and says nothing. An unreadable or
// damaged file, or one saved under another address (the operator
// re-advertised the daemon), is logged with its reason and ignored: the first
// round then refetches the fleet, which is correct, just not incremental.
func (f *Fleet) LoadState(path string) {
	var sf stateFile
	err := xmlstore.LoadFile(path, &sf)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err == nil {
		err = sf.validate()
	}
	if err == nil && sf.Self != f.cfg.Self {
		err = fmt.Errorf("fleet: saved by %q, this daemon advertises %q", sf.Self, f.cfg.Self)
	}
	if err != nil {
		f.cfg.Logf("fleet: not restoring %s, the first sync round refetches: %v", path, err)
		return
	}
	f.store.restore(&sf)
	for _, r := range sf.Records {
		f.cfg.Apply(r)
	}
}
