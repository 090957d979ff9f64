package server

import (
	"testing"
	"time"
)

// TestBusyQueueDoesNotStarveAnother: with one slot, a queue whose task
// re-enqueues itself every 100 µs never runs dry, so a scheduler that holds
// the slot for a whole drain would never run a second queue's task. Taking
// the slot per task must run it at once.
func TestBusyQueueDoesNotStarveAnother(t *testing.T) {
	s := newScheduler(1)
	busy, other := newQueue(4), newQueue(4)
	stop := make(chan struct{})
	entered := make(chan struct{})
	first := true
	var again task
	again = func() {
		if first {
			first = false
			close(entered)
		}
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(100 * time.Microsecond)
		_ = s.enqueue(busy, again) // refused once the drain below began
	}
	if err := s.enqueue(busy, again); err != nil {
		t.Fatal(err)
	}
	<-entered // busy's goroutine holds the slot and keeps its queue non-empty
	ran := make(chan time.Duration, 1)
	t0 := time.Now()
	if err := s.enqueue(other, func() { ran <- time.Since(t0) }); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-ran:
		t.Logf("the waiting queue's task ran after %v", d)
	case <-time.After(2 * time.Second):
		t.Error("a queue's only task waited 2 s behind a queue whose tasks keep arriving")
	}
	close(stop)
	s.drain()
}
