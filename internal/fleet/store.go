package fleet

import (
	"maps"
	"sort"
	"sync"

	"invarnetx/internal/signature"
)

// Record is one replicated signature: the paper's four-tuple stamped with
// the identity of the daemon that first accepted it (Origin, its advertised
// address) and its position in that origin's append sequence (Seq, starting
// at 1). Records are immutable once issued; the log is append-only per
// origin, which is what makes the version-vector diff exact. The JSON tags
// are the gossip wire shape, the XML tags a <record> of fleet-state.xml.
type Record struct {
	Origin   string `json:"origin" xml:"origin,attr"`
	Seq      uint64 `json:"seq" xml:"seq,attr"`
	Workload string `json:"workload" xml:"type"`
	Node     string `json:"node" xml:"ip"`
	Problem  string `json:"problem" xml:"problem"`
	Tuple    string `json:"tuple" xml:"tuple"`
}

// wellFormed reports whether the record's tuple parses. Records are outside
// input: one that could never install must not be issued or advance a clock.
func (r Record) wellFormed() bool {
	_, err := signature.ParseTuple(r.Tuple)
	return err == nil
}

// Vector is a version vector: for each origin, the highest sequence number
// applied. Anti-entropy ships exactly the records above the remote's clocks,
// so each round transfers only what the remote is missing.
type Vector map[string]uint64

// Store is the replicated signature log of one daemon: every record it has
// originated or applied, indexed by origin sequence for delta computation.
// Content dedup is not its job: the same fault labelled on two peers is two
// records here (both clocks must advance) and one signature in the database
// the Apply hook merges into. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	self    string
	nextSeq uint64 // next sequence number to stamp on a local append
	vector  Vector
	log     []Record
}

// NewStore builds an empty store for the daemon advertised as self.
func NewStore(self string) *Store {
	return &Store{
		self:    self,
		nextSeq: 1,
		vector:  make(Vector),
	}
}

// Append issues a locally originated record: the signature just accepted as
// new by this daemon's own labelling path (the caller's database already
// refused a duplicate). It returns the stamped record, or false for a
// malformed tuple — nothing is issued then.
func (s *Store) Append(workload, node, problem, tuple string) (Record, bool) {
	r := Record{Origin: s.self, Workload: workload, Node: node, Problem: problem, Tuple: tuple}
	if !r.wellFormed() {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Seq = s.nextSeq
	s.nextSeq++
	s.vector[s.self] = r.Seq
	s.log = append(s.log, r)
	return r, true
}

// Apply merges records received from a peer. A record whose (origin, seq) is
// already covered by the vector is skipped outright, and so is one further
// past its origin's clock than an exchange reaches (Missing ships a sorted
// prefix of at most maxExchangeRecords; a forged seq must not cover the
// origin's real records for good). A fresh one advances the vector — and
// the local sequence, see keepAhead — and enters the log. The fresh records
// are returned for the caller to install into the live signature database,
// which merges content duplicates (the same fault labelled independently on
// two peers). Batches apply atomically with respect to concurrent readers of
// the vector.
func (s *Store) Apply(recs []Record) (fresh []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		clock := s.vector[r.Origin]
		if r.Origin == "" || r.Seq <= clock || r.Seq-clock > maxExchangeRecords {
			continue
		}
		if !r.wellFormed() {
			continue // a malformed tuple must not wedge the clock
		}
		s.vector[r.Origin] = r.Seq
		s.keepAhead(r)
		s.log = append(s.log, r)
		fresh = append(fresh, r)
	}
	return fresh
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
	return maps.Clone(s.vector)
}

// Len returns the number of records in the log.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}
