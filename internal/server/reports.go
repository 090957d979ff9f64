package server

import (
	"fmt"
	"sync"
)

// Report statuses.
const (
	StatusPending = "pending"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Report is one asynchronous diagnosis: created pending by POST /v1/diagnose,
// completed by a worker, retrieved by GET /v1/reports/{id}.
type Report struct {
	ID        string     `json:"id"`
	Status    string     `json:"status"`
	Workload  string     `json:"workload"`
	Node      string     `json:"node"`
	Error     string     `json:"error,omitempty"`
	Diagnosis *Diagnosis `json:"diagnosis,omitempty"`
	LatencyMS float64    `json:"latencyMS,omitempty"`
}

// report is the store-side record: the wire Report plus a completion gate
// for wait=true diagnose requests and shutdown draining.
type report struct {
	mu   sync.Mutex
	r    Report
	done chan struct{}
}

func (r *report) snapshot() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r
}

// completed reports whether the report has left pending.
func (r *report) completed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// complete fills in the outcome and releases waiters; idempotence is not
// needed (each report is completed by exactly one task).
func (r *report) complete(d *Diagnosis, errMsg string, latencyMS float64) {
	r.mu.Lock()
	if errMsg != "" {
		r.r.Status = StatusFailed
		r.r.Error = errMsg
	} else {
		r.r.Status = StatusDone
		r.r.Diagnosis = d
	}
	r.r.LatencyMS = latencyMS
	r.mu.Unlock()
	close(r.done)
}

// reportStore holds recent reports under a bounded FIFO: completed reports
// beyond the cap are evicted oldest-first, pending ones are never evicted
// (they are bounded transitively by the profile queues that will complete
// them).
type reportStore struct {
	mu    sync.Mutex
	cap   int
	next  int64
	byID  map[string]*report
	order []string // issue order, for eviction; order[:head] is dead
	head  int
}

func newReportStore(cap int) *reportStore {
	return &reportStore{cap: cap, byID: make(map[string]*report)}
}

// create issues a new pending report.
func (s *reportStore) create(workload, node string) *report {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("r-%08d", s.next)
	r := &report{
		r:    Report{ID: id, Status: StatusPending, Workload: workload, Node: node},
		done: make(chan struct{}),
	}
	s.byID[id] = r
	s.order = append(s.order, id)
	s.evict()
	return r
}

// evict drops the oldest completed reports over capacity. Once the store is
// at capacity every create evicts, and the oldest report is almost always
// complete, so that case is O(1); a pending head falls back to scanning
// forward for the oldest completed one. Called with the lock held.
func (s *reportStore) evict() {
	for len(s.byID) > s.cap {
		i := s.head
		for ; i < len(s.order); i++ {
			if r := s.byID[s.order[i]]; r == nil || r.completed() {
				break
			}
		}
		if i == len(s.order) {
			return // everything over cap is still pending
		}
		delete(s.byID, s.order[i])
		s.dropAt(i)
	}
}

// dropAt removes order[i], i ≥ head: by advancing head when i is the head,
// by a shift otherwise. The dead prefix is compacted away once it passes
// half the slice, so advancing is O(1) amortised. Called with the lock held.
func (s *reportStore) dropAt(i int) {
	if i > s.head {
		s.order = append(s.order[:i], s.order[i+1:]...)
		return
	}
	s.order[i] = ""
	s.head++
	if s.head > len(s.order)/2 {
		n := copy(s.order, s.order[s.head:])
		clear(s.order[n:])
		s.order = s.order[:n]
		s.head = 0
	}
}

// remove withdraws a just-issued report whose work was shed at admission —
// the ID was never returned to the client, so nothing dangles.
func (s *reportStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, id)
	for i := len(s.order) - 1; i >= s.head; i-- { // newest first: it just issued
		if s.order[i] == id {
			s.dropAt(i)
			break
		}
	}
}

// get returns the report with the given id.
func (s *reportStore) get(id string) (*report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byID[id]
	return r, ok
}
