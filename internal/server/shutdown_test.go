package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShutdownBoundedByWedgedWorker pins the drain-budget contract: a task
// wedged on the one slot must not hang Shutdown past the caller's context —
// the drain is abandoned, the error says so, and persistence still runs.
func TestShutdownBoundedByWedgedWorker(t *testing.T) {
	srv, _, err := New(Config{Workers: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Wedge the single worker: the task blocks until the test releases it,
	// simulating a stuck diagnosis or hung callback.
	block := make(chan struct{})
	picked := make(chan struct{})
	q := newQueue(4)
	if err := srv.sched.enqueue(q, func() {
		close(picked)
		<-block
	}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	select {
	case <-picked:
	case <-time.After(5 * time.Second):
		t.Fatalf("worker never picked up the wedged task")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("Shutdown returned nil with a wedged worker, want a drain-abort error")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown error = %v, want context.DeadlineExceeded cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Shutdown hung on the wedged worker instead of honouring the drain budget")
	}
	close(block) // release the worker so the test leaks no goroutine
}

// TestShutdownCleanDrainNoError is the complementary case: with no wedged
// work, the same bounded path drains and persists without error.
func TestShutdownCleanDrainNoError(t *testing.T) {
	srv, _, err := New(Config{Workers: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ran := make(chan struct{})
	q := newQueue(4)
	if err := srv.sched.enqueue(q, func() { close(ran) }); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-ran:
	default:
		t.Fatalf("accepted task was dropped by a clean shutdown")
	}
}
