package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invarnetx/internal/stats"
)

// shedServer refuses the first refuse ingests with 429 + Retry-After, then
// accepts everything.
func shedServer(refuse int64, retryAfterSecs string) (*httptest.Server, *atomic.Int64) {
	var seen atomic.Int64
	h := http.NewServeMux()
	h.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		n := seen.Add(1)
		if n <= refuse {
			if retryAfterSecs != "" {
				w.Header().Set("Retry-After", retryAfterSecs)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"accepted": 1})
	})
	return httptest.NewServer(h), &seen
}

// TestRunLoadBacksOffOnShed pins the 429 contract: a shed response pauses
// the stream before its next request, the pause honours the server's
// Retry-After as a floor, consecutive sheds grow the delay, and a success
// resets the streak.
func TestRunLoadBacksOffOnShed(t *testing.T) {
	srv, _ := shedServer(3, "2")
	defer srv.Close()

	var mu sync.Mutex
	var delays []time.Duration
	c := New(srv.URL, nil)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		return nil // virtual time: record, don't wait
	}

	cfg := LoadConfig{Streams: 1, Batches: 6, BatchLen: 2}
	rep := c.RunLoad(context.Background(), cfg)
	if rep.Shed != 3 {
		t.Fatalf("shed = %d, want 3", rep.Shed)
	}
	if rep.Accepted != 3 {
		t.Fatalf("accepted = %d, want 3", rep.Accepted)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != 3 {
		t.Fatalf("paused %d times, want one pause per shed (3): %v", len(delays), delays)
	}
	for i, d := range delays {
		// Retry-After: 2 floors every delay (the exponential term is far
		// smaller here) and the cap bounds it.
		if d < 2*time.Second || d > shedBackoffCap {
			t.Errorf("delay %d = %v outside [2s, %v]", i, d, shedBackoffCap)
		}
	}
}

// TestRunLoadCountsDiagnoseShedApart pins the batch invariant: Sent counts
// ingest batches only, so a shed diagnose must not land in the batch Shed
// column — it used to, which made Accepted+Shed exceed Sent whenever a
// diagnose was refused.
func TestRunLoadCountsDiagnoseShedApart(t *testing.T) {
	h := http.NewServeMux()
	h.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"accepted": 1})
	})
	h.HandleFunc("POST /v1/diagnose", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "diagnose queue full"})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := New(srv.URL, nil)
	pauses := 0
	c.sleep = func(ctx context.Context, d time.Duration) error { pauses++; return nil }

	rep := c.RunLoad(context.Background(), LoadConfig{Streams: 1, Batches: 6, BatchLen: 2, DiagnoseEvery: 2})
	if rep.Sent != 6 || rep.Accepted != 6 || rep.Shed != 0 {
		t.Fatalf("batches: sent=%d accepted=%d shed=%d, want 6/6/0", rep.Sent, rep.Accepted, rep.Shed)
	}
	if rep.Accepted+rep.Shed != rep.Sent {
		t.Fatalf("sent=%d but accepted=%d + shed=%d", rep.Sent, rep.Accepted, rep.Shed)
	}
	if rep.DiagnoseShed != 3 || rep.Diagnoses != 0 || rep.Errors != 0 {
		t.Fatalf("diagnoses: issued=%d shed=%d errors=%d, want 0/3/0", rep.Diagnoses, rep.DiagnoseShed, rep.Errors)
	}
	if pauses != 3 {
		t.Fatalf("paused %d times, want one backoff per shed diagnose (3)", pauses)
	}
}

// TestShedBackoffGrowsAndResets exercises the pacing state directly: the
// jittered exponential grows monotonically in expectation, never exceeds
// the cap, and reset clears the streak.
func TestShedBackoffGrowsAndResets(t *testing.T) {
	bo := shedBackoff{rng: stats.NewRNG(1)}
	err := &APIError{StatusCode: http.StatusTooManyRequests}
	prevMax := time.Duration(0)
	for i := 0; i < 12; i++ {
		d := bo.delay(err)
		if d <= 0 || d > shedBackoffCap {
			t.Fatalf("delay %d = %v outside (0, %v]", i, d, shedBackoffCap)
		}
		// The jitter window of round i is (2^i·base/2, 2^i·base]; its upper
		// bound dominates every earlier round's, so the envelope grows.
		max := shedBackoffBase << i
		if max > shedBackoffCap || max <= 0 {
			max = shedBackoffCap
		}
		if d > max {
			t.Fatalf("delay %d = %v exceeds its envelope %v", i, d, max)
		}
		if max > prevMax {
			prevMax = max
		}
	}
	bo.reset()
	if d := bo.delay(err); d > shedBackoffBase {
		t.Fatalf("post-reset delay %v exceeds the base %v", d, shedBackoffBase)
	}

	// The Retry-After hint floors the delay even on the first shed.
	bo.reset()
	hint := &APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: 3 * time.Second}
	if d := bo.delay(hint); d < 3*time.Second {
		t.Fatalf("delay %v ignores Retry-After floor of 3s", d)
	}
}

// TestPauseHonoursContext makes sure a backoff wait cannot outlive the load
// deadline.
func TestPauseHonoursContext(t *testing.T) {
	c := New("http://127.0.0.1:0", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := c.pause(ctx, time.Hour); err == nil {
		t.Fatalf("pause returned nil under a cancelled context")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("pause blocked despite cancelled context")
	}
}
