package fleet

import (
	"sort"
	"sync"

	"invarnetx/internal/signature"
	"invarnetx/internal/xmlstore"
)

// Record is one replicated signature: the paper's four-tuple stamped with
// the identity of the daemon that first accepted it (Origin, its advertised
// address) and its position in that origin's append sequence (Seq, starting
// at 1). Records are immutable once issued; the log is append-only per
// origin, which is what makes the version-vector diff exact.
type Record struct {
	Origin   string `json:"origin"`
	Seq      uint64 `json:"seq"`
	Workload string `json:"workload"`
	Node     string `json:"node"`
	Problem  string `json:"problem"`
	Tuple    string `json:"tuple"`
}

// dedupKey is the content identity of a record: the operation context plus
// the (problem, tuple) fingerprint — the same merge key signature.DB.Merge
// dedupes on, so two peers independently labelling the same fault converge
// to one logical signature fleet-wide.
type dedupKey struct {
	workload, node string
	fp             uint64
}

func (r Record) key() (dedupKey, error) {
	t, err := signature.ParseTuple(r.Tuple)
	if err != nil {
		return dedupKey{}, err
	}
	e := signature.Entry{Tuple: t, Problem: r.Problem, IP: r.Node, Workload: r.Workload}
	return dedupKey{workload: r.Workload, node: r.Node, fp: e.Fingerprint()}, nil
}

// Vector is a version vector: for each origin, the highest sequence number
// applied. Anti-entropy ships exactly the records above the remote's clocks,
// so each round transfers only what the remote is missing.
type Vector map[string]uint64

// Clone copies the vector (the zero map clones to an empty one).
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for o, s := range v {
		out[o] = s
	}
	return out
}

// Store is the replicated signature log of one daemon: every record it has
// originated or applied, indexed by origin sequence for delta computation
// and by content for cross-origin dedup. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	self    string
	nextSeq uint64 // next sequence number to stamp on a local append
	vector  Vector
	log     []Record
	// seen maps content identity to the first record that carried it; later
	// records with the same content still enter the log (their (origin, seq)
	// must stay diffable) but are reported as duplicates to the applier.
	seen map[dedupKey]struct{}
}

// NewStore builds an empty store for the daemon advertised as self.
func NewStore(self string) *Store {
	return &Store{
		self:    self,
		nextSeq: 1,
		vector:  make(Vector),
		seen:    make(map[dedupKey]struct{}),
	}
}

// Append issues a locally originated record: the signature just accepted by
// this daemon's own labelling path. It returns the stamped record and false
// when the content was already known (from a local duplicate or a replica
// applied earlier) — nothing is issued then, so gossip never carries
// redundant payloads that the origin itself could see.
func (s *Store) Append(workload, node, problem, tuple string) (Record, bool) {
	r := Record{Origin: s.self, Workload: workload, Node: node, Problem: problem, Tuple: tuple}
	k, err := r.key()
	if err != nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.seen[k]; dup {
		return Record{}, false
	}
	r.Seq = s.nextSeq
	s.nextSeq++
	s.vector[s.self] = r.Seq
	s.log = append(s.log, r)
	s.seen[k] = struct{}{}
	return r, true
}

// Apply merges records received from a peer. A record whose (origin, seq) is
// already covered by the vector is skipped outright, and so is one further
// past its origin's clock than an exchange reaches (Missing ships a sorted
// prefix of at most maxExchangeRecords; a forged seq must not cover the
// origin's real records for good). A fresh one advances the vector — and
// the local sequence, see keepAhead — and enters the log. Fresh records
// whose content is new are returned for the caller to install into the live
// signature database; fresh-but-content-duplicate records (the same fault
// labelled independently on two peers) advance the clock without a second
// install. Batches apply atomically with respect to concurrent readers of
// the vector.
func (s *Store) Apply(recs []Record) (fresh []Record, dups int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		clock := s.vector[r.Origin]
		if r.Origin == "" || r.Seq <= clock || r.Seq-clock > maxExchangeRecords {
			continue
		}
		k, err := r.key()
		if err != nil {
			continue // a malformed tuple must not wedge the clock
		}
		s.vector[r.Origin] = r.Seq
		s.keepAhead(r)
		s.log = append(s.log, r)
		if _, dup := s.seen[k]; dup {
			dups++
			continue
		}
		s.seen[k] = struct{}{}
		fresh = append(fresh, r)
	}
	return fresh, dups
}

// keepAhead moves the local sequence past a record of this daemon's own
// origin (coming home after a cold restart): Append never reissues its seq.
func (s *Store) keepAhead(r Record) {
	if r.Origin == s.self && r.Seq >= s.nextSeq {
		s.nextSeq = r.Seq + 1
	}
}

// maxExchangeRecords caps the records one exchange ships in either direction.
// With 26 metrics a tuple has at most 325 coordinates, so a record is well
// under 1 KiB of JSON and a full exchange stays under maxGossipBody; a peer
// that is further behind catches up over ⌈missing/cap⌉ rounds.
const maxExchangeRecords = 8192

// Missing returns the records the remote vector does not cover, ordered by
// (origin, seq) so each origin's slice arrives as a contiguous ascending run
// — the property Apply's max-advance clock update relies on — and cut to the
// first maxExchangeRecords of that order: a prefix keeps every shipped run
// contiguous from the remote's clock, so the next exchange resumes exactly
// where this one stopped.
func (s *Store) Missing(remote Vector) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, r := range s.log {
		if r.Seq > remote[r.Origin] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Origin != out[b].Origin {
			return out[a].Origin < out[b].Origin
		}
		return out[a].Seq < out[b].Seq
	})
	if len(out) > maxExchangeRecords {
		out = out[:maxExchangeRecords]
	}
	return out
}

// Vector returns a copy of the current version vector.
func (s *Store) Vector() Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vector.Clone()
}

// Len returns the number of records in the log.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// File snapshots the store into its persistable form.
func (s *Store) File() xmlstore.FleetFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := xmlstore.FleetFile{
		Version: xmlstore.FormatVersion,
		Self:    s.self,
		NextSeq: s.nextSeq,
	}
	origins := make([]string, 0, len(s.vector))
	for o := range s.vector {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		f.Vector = append(f.Vector, xmlstore.FleetClock{Origin: o, Seq: s.vector[o]})
	}
	for _, r := range s.log {
		f.Records = append(f.Records, xmlstore.FleetRecord{
			Origin: r.Origin, Seq: r.Seq,
			Workload: r.Workload, Node: r.Node, Problem: r.Problem, Tuple: r.Tuple,
		})
	}
	return f
}

// Restore loads a persisted fleet file into an empty store, so a restarted
// daemon resumes anti-entropy exactly where it stopped: its own sequence
// counter continues (no reissued seqs) and the first sync round after boot
// diffs against the restored vector instead of refetching everything. The
// file must Validate() first; Restore trusts its shape.
func (s *Store) Restore(f *xmlstore.FleetFile) []Record {
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
	var fresh []Record
	for _, fr := range f.Records {
		r := Record{
			Origin: fr.Origin, Seq: fr.Seq,
			Workload: fr.Workload, Node: fr.Node, Problem: fr.Problem, Tuple: fr.Tuple,
		}
		k, err := r.key()
		if err != nil {
			continue
		}
		s.keepAhead(r)
		s.log = append(s.log, r)
		if _, dup := s.seen[k]; dup {
			continue
		}
		s.seen[k] = struct{}{}
		fresh = append(fresh, r)
	}
	return fresh
}
