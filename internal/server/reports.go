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
	order []string // issue order, for eviction
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

// evict drops the oldest completed reports over capacity. Called with the
// lock held.
func (s *reportStore) evict() {
	for len(s.byID) > s.cap {
		dropped := false
		for i, id := range s.order {
			r := s.byID[id]
			if r == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
			select {
			case <-r.done:
			default:
				continue // pending: skip, it will complete
			}
			delete(s.byID, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			dropped = true
			break
		}
		if !dropped {
			return // everything over cap is still pending
		}
	}
}

// remove withdraws a just-issued report whose work was shed at admission —
// the ID was never returned to the client, so nothing dangles.
func (s *reportStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
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
