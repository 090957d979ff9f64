package main

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
)

// TestServeAnswersThenPersists: serve answers /healthz on its listener while
// the context lives, and once it is cancelled returns nil with the trained
// profile persisted to the store directory.
func TestServeAnswersThenPersists(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := server.New(server.Config{Core: core.DefaultConfig(), StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lcfg := client.LoadConfig{Streams: 1, BatchLen: 10}
	if err := trainLoadContexts(srv.System(), lcfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, srv, ln, serveOptions{drainBudget: 10 * time.Second, readHeaderTimeout: time.Second})
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after cancel, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	w, node := lcfg.StreamID(0)
	files, err := filepath.Glob(filepath.Join(dir, "profile-*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("store holds %v, want the one profile file of %s@%s", files, w, node)
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("the listener still answers after serve returned")
	}
}
