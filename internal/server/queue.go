package server

import (
	"errors"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is the admission-control refusal: the target profile's queue
// is at capacity and the work was shed. The HTTP layer maps it to
// 429 Too Many Requests with a Retry-After header — memory stays bounded and
// the client owns the retry.
var ErrQueueFull = errors.New("server: profile queue full")

// errDraining refuses work enqueued after shutdown began; handlers map it
// to 503. Work accepted before the drain started still runs to completion.
var errDraining = errors.New("server: draining")

// errTaskPanicked answers the waiter of a task that panicked (see
// scheduler.run); handlers map it to 500.
var errTaskPanicked = errors.New("server: task panicked (stack in the daemon log)")

// task is one unit of asynchronous work bound to a profile queue.
type task func()

// queue is the bounded FIFO of one profile (one operation context). Tasks of
// a queue execute strictly one at a time, in order — the worker holding a
// queue drains it before releasing it — so per-stream state (the sliding
// window, the monitor) needs no further synchronisation against the pool.
type queue struct {
	mu      sync.Mutex
	tasks   []task
	cap     int
	running bool // owned by a worker (or sitting on the run queue)
}

// scheduler is an m:n work scheduler: dynamically many profile queues served
// by a fixed worker pool. Only queues with work occupy the run queue, and a
// queue appears there at most once, so scheduling state is O(active
// profiles) regardless of how many contexts the registry holds.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	runq   []*queue
	closed bool

	depth   atomic.Int64   // queued-but-unfinished tasks, for /v1/stats
	pending sync.WaitGroup // accepted tasks not yet executed (drain barrier)
	workers sync.WaitGroup
}

func newScheduler(workers int) *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// newQueue returns an empty profile queue bounded at cap tasks.
func newQueue(cap int) *queue { return &queue{cap: cap} }

// enqueue admits t onto q or sheds it: ErrQueueFull at capacity,
// errDraining after shutdown began. An admitted task is guaranteed to run
// (drain waits for it) unless the process dies first. The closed check and
// the run-queue push happen under one hold of the scheduler lock, so no
// task can slip into a queue after the workers were told to exit — the lock
// order (scheduler, then queue) matches every other site.
func (s *scheduler) enqueue(q *queue, t task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errDraining
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) >= q.cap {
		return ErrQueueFull
	}
	q.tasks = append(q.tasks, t)
	s.pending.Add(1)
	s.depth.Add(1)
	if !q.running {
		q.running = true
		s.runq = append(s.runq, q)
		s.cond.Signal()
	}
	return nil
}

// worker pops a queue off the run queue and drains it to empty before
// looking for the next one. Draining whole queues keeps each profile's
// tasks serialized; fairness across profiles comes from the pool width and
// from hot queues being bounded (admission control sheds what a worker
// cannot keep up with).
func (s *scheduler) worker() {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		for len(s.runq) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.runq) == 0 { // closed and empty
			s.mu.Unlock()
			return
		}
		q := s.runq[0]
		s.runq = s.runq[1:]
		s.mu.Unlock()

		for {
			q.mu.Lock()
			if len(q.tasks) == 0 {
				q.running = false
				q.mu.Unlock()
				break
			}
			t := q.tasks[0]
			copy(q.tasks, q.tasks[1:])
			q.tasks[len(q.tasks)-1] = nil
			q.tasks = q.tasks[:len(q.tasks)-1]
			q.mu.Unlock()

			s.run(t)
		}
	}
}

// run executes one task and contains a panic inside it — the daemon's panic
// policy is contain, not crash: one bad task (a custom core.Config.Assoc
// that panics, say) must not kill the process and every other context's
// stream state. The worker survives and the depth/pending accounting runs
// either way, so a drain still completes; a task with a waiter answers it
// from its own deferred call, which runs before the panic reaches here.
func (s *scheduler) run(t task) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: task panicked: %v\n%s", r, debug.Stack())
		}
		s.depth.Add(-1)
		s.pending.Done()
	}()
	t()
}

// drain blocks until every task accepted so far has finished executing.
// Callers must stop admitting first (close, or an upstream draining gate),
// or drain can wait forever behind fresh work.
func (s *scheduler) drain() { s.pending.Wait() }

// close stops admission, wakes the pool, and waits for the workers to
// finish whatever is still queued and exit. Safe to call once.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}
