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
// a queue execute strictly one at a time, in order — one goroutine serves a
// busy queue until it is empty — so per-stream state (the sliding window,
// the monitor) needs no further synchronisation.
type queue struct {
	mu      sync.Mutex
	tasks   []task
	cap     int
	running bool // a serve goroutine owns the queue
}

// scheduler runs the profile queues on the Go runtime: a queue that gains a
// task while idle gets its own goroutine, which drains it and exits, so an
// idle profile costs no goroutine. slots (Config.Workers of them) bounds how
// many tasks run at once; admission control sheds what the slots cannot keep
// up with.
type scheduler struct {
	mu     sync.Mutex
	closed bool
	slots  chan struct{}

	depth   atomic.Int64   // admitted-but-unfinished tasks, running ones included, for /v1/stats
	pending sync.WaitGroup // accepted tasks not yet executed (drain barrier)
}

func newScheduler(workers int) *scheduler {
	return &scheduler{slots: make(chan struct{}, workers)}
}

// newQueue returns an empty profile queue bounded at cap tasks.
func newQueue(cap int) *queue { return &queue{cap: cap} }

// enqueue admits t onto q or sheds it: ErrQueueFull at capacity,
// errDraining after the drain began. An admitted task is guaranteed to run
// (drain waits for it) unless the process dies first. The closed check and
// the pending count happen under one hold of the scheduler lock, so no task
// can slip past a drain — the lock order (scheduler, then queue) matches
// every other site.
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
		go s.serve(q)
	}
	return nil
}

// serve drains q in FIFO order and exits once q is empty. It takes a slot
// per task, not per drain: a queue whose tasks keep arriving hands its slot
// to the queues waiting for one (the slot channel serves blocked senders in
// order) instead of starving them. Only this goroutine pops q, so a task seen
// before the wait is still first after it; each profile's tasks stay
// serialised, and a queue waiting for a slot keeps its tasks (and its
// bound) until one frees.
func (s *scheduler) serve(q *queue) {
	for {
		q.mu.Lock()
		if len(q.tasks) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()

		s.slots <- struct{}{}
		q.mu.Lock()
		t := q.tasks[0]
		copy(q.tasks, q.tasks[1:])
		q.tasks[len(q.tasks)-1] = nil
		q.tasks = q.tasks[:len(q.tasks)-1]
		q.mu.Unlock()
		s.run(t)
		<-s.slots
	}
}

// run executes one task and contains a panic inside it — the daemon's panic
// policy is contain, not crash: one bad task (a custom core.Config.Assoc
// that panics, say) must not kill the process and every other context's
// stream state. The queue's goroutine survives and the depth/pending
// accounting runs either way, so a drain still completes; a task with a
// waiter answers it from its own deferred call, which runs before the panic
// reaches here.
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

// drain stops admission and blocks until every task accepted before it has
// finished executing.
func (s *scheduler) drain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pending.Wait()
}
