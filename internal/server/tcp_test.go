package server

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"invarnetx/internal/core"
)

// startIngestTCP boots a server's TCP ingest listener on an ephemeral port
// and returns its address plus a shutdown func that asserts a clean drain.
func startIngestTCP(t *testing.T, srv *Server, idle time.Duration) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeIngestTCP(ln, idle) }()
	return ln.Addr().String(), func() {
		ln.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeIngestTCP: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("ServeIngestTCP did not return after listener close")
		}
	}
}

func readStatus(t *testing.T, c net.Conn) (byte, uint32) {
	t.Helper()
	var resp [5]byte
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp[0], binary.LittleEndian.Uint32(resp[1:])
}

func TestIngestTCPAcceptAndApply(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), WindowCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startIngestTCP(t, srv, 0)
	defer stop()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two frames back to back on one connection, same stream.
	for round := 1; round <= 2; round++ {
		buf, err := AppendFrame(nil, "wordcount", "10.4.0.1", testSamples(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		status, detail := readStatus(t, c)
		if status != FrameAccepted || detail != 7 {
			t.Fatalf("round %d: status %d detail %d, want accepted/7", round, status, detail)
		}
	}
	st := srv.stream(core.Context{Workload: "wordcount", IP: "10.4.0.1"})
	waitWindow(t, st, 14)
}

func TestIngestTCPBadFrameCloses(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startIngestTCP(t, srv, 0)
	defer stop()

	// A plausible length prefix followed by garbage, and a well-formed frame
	// setting a flag bit the format does not define: FrameBad, then close,
	// each counted once.
	garbage := make([]byte, 4+frameHeaderLen)
	binary.LittleEndian.PutUint32(garbage, frameHeaderLen)
	copy(garbage[4:], "not a frame at all")
	flagged, err := AppendFrame(nil, "wordcount", "10.4.0.1", testSamples(3))
	if err != nil {
		t.Fatal(err)
	}
	flagged[4+5] |= 0x04
	for i, bad := range [][]byte{garbage, flagged} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
		if status, _ := readStatus(t, c); status != FrameBad {
			t.Fatalf("bad frame %d: status %d, want FrameBad", i, status)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("bad frame %d: connection still open: %v", i, err)
		}
		if got := srv.ctr.badRequests.Load(); got != int64(i+1) {
			t.Errorf("bad frame %d moved badRequests to %d, want %d", i, got, i+1)
		}
	}

	// An insane length prefix is refused without reading the body.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<31)
	if _, err := c2.Write(huge[:]); err != nil {
		t.Fatal(err)
	}
	if status, _ := readStatus(t, c2); status != FrameBad {
		t.Fatalf("huge prefix: status %d, want FrameBad", status)
	}
	// ...and counted like the bad body, and like the same oversize body
	// over HTTP.
	if got := srv.ctr.badRequests.Load(); got != 3 {
		t.Errorf("bad length prefix moved badRequests to %d, want 3", got)
	}
}

func TestIngestTCPShedKeepsConnection(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startIngestTCP(t, srv, 0)
	defer stop()

	ctx := core.Context{Workload: "wordcount", IP: "10.4.0.2"}
	st := srv.stream(ctx)
	gate := make(chan struct{})
	entered := make(chan struct{})
	if err := srv.sched.enqueue(st.queue, func() { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-entered // worker wedged; queue empty again

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf, err := AppendFrame(nil, ctx.Workload, ctx.IP, testSamples(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil { // fills the queue
		t.Fatal(err)
	}
	if status, _ := readStatus(t, c); status != FrameAccepted {
		t.Fatalf("fill: status %d", status)
	}
	if _, err := c.Write(buf); err != nil { // over cap: shed
		t.Fatal(err)
	}
	if status, _ := readStatus(t, c); status != FrameShed {
		t.Fatalf("over-cap: status %d, want FrameShed", status)
	}
	close(gate) // release the worker; the same connection keeps working
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		status, _ := readStatus(t, c)
		if status == FrameAccepted {
			break
		}
		if status != FrameShed || time.Now().After(deadline) {
			t.Fatalf("retry after shed: status %d", status)
		}
	}
}

func TestIngestTCPDrainingCloses(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startIngestTCP(t, srv, 0)
	defer stop()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.draining.Store(true)
	buf, err := AppendFrame(nil, "wordcount", "10.4.0.3", testSamples(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if status, _ := readStatus(t, c); status != FrameDraining {
		t.Fatalf("status %d, want FrameDraining", status)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open while draining: %v", err)
	}
}

func TestIngestTCPIdleDeadline(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startIngestTCP(t, srv, 50*time.Millisecond)
	defer stop()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send nothing: the server must hang up on the quiet peer.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == io.ErrNoProgress || err == nil {
		t.Fatalf("idle connection not closed: %v", err)
	}
}
