package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// TCP ingest wire protocol: the client writes length-prefixed binary frames
// (the same bytes POST /v1/ingest accepts under ContentTypeFrame) back to
// back; the server answers each with a fixed 5-byte response — a status
// byte and a u32 little-endian detail (accepted sample count on OK, zero
// otherwise). Shed frames keep the connection open (the client owns the
// retry, as with HTTP 429); malformed frames and draining close it after
// the response.
const (
	FrameAccepted = 0 // frame admitted; detail = accepted sample count
	FrameShed     = 1 // profile queue full — back off and retry
	FrameBad      = 2 // malformed frame; connection closes
	FrameDraining = 3 // server shutting down; connection closes
)

// DefaultIngestIdleTimeout bounds the gap between frames on one TCP ingest
// connection: a connection that goes quiet longer is closed, so a slow or
// dead peer cannot pin server state forever.
const DefaultIngestIdleTimeout = 2 * time.Minute

// ServeIngestTCP accepts binary ingest connections on ln until the listener
// is closed, then closes every live connection and returns. idle bounds
// both the wait for a connection's next frame and each response write
// (<= 0 selects DefaultIngestIdleTimeout). The daemon closes ln before
// Server.Shutdown, mirroring the HTTP listener ordering.
func (s *Server) ServeIngestTCP(ln net.Listener, idle time.Duration) error {
	if idle <= 0 {
		idle = DefaultIngestIdleTimeout
	}
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	for {
		c, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, c)
				mu.Unlock()
				c.Close()
			}()
			s.serveIngestConn(c, idle)
		}()
	}
}

// serveIngestConn runs one connection's frame loop. The frame buffer and
// the decoded (workload, node) strings are reused across frames: a
// connection that sticks to one stream — the expected shape, one agent per
// node — allocates nothing per frame in the steady state.
func (s *Server) serveIngestConn(c net.Conn, idle time.Duration) {
	br := bufio.NewReaderSize(c, 64<<10)
	var (
		prefix   [4]byte
		resp     [5]byte
		frame    []byte
		lastWB   []byte // raw identity bytes backing the cached strings
		lastNB   []byte
		workload string
		node     string
	)
	reply := func(status byte, detail uint32) bool {
		resp[0] = status
		binary.LittleEndian.PutUint32(resp[1:], detail)
		c.SetWriteDeadline(time.Now().Add(idle))
		_, err := c.Write(resp[:])
		return err == nil
	}
	for {
		c.SetReadDeadline(time.Now().Add(idle))
		if _, err := io.ReadFull(br, prefix[:]); err != nil {
			return // EOF, timeout or peer reset: the connection is done
		}
		n := int(binary.LittleEndian.Uint32(prefix[:]))
		if n < frameHeaderLen || n > maxFrameBytes {
			s.ctr.badRequests.Add(1)
			reply(FrameBad, 0)
			return
		}
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		if s.draining.Load() {
			reply(FrameDraining, 0)
			return
		}
		b := getBatch()
		wb, nb, err := decodeFrame(frame, b)
		if err != nil {
			putBatch(b)
			s.ctr.badRequests.Add(1)
			reply(FrameBad, 0)
			return
		}
		if !bytes.Equal(wb, lastWB) {
			lastWB = append(lastWB[:0], wb...)
			workload = string(wb)
		}
		if !bytes.Equal(nb, lastNB) {
			lastNB = append(lastNB[:0], nb...)
			node = string(nb)
		}
		accepted, err := s.admit(workload, node, b)
		switch {
		case errors.Is(err, ErrQueueFull):
			if !reply(FrameShed, 0) {
				return
			}
		case err != nil:
			reply(FrameDraining, 0)
			return
		default:
			if !reply(FrameAccepted, uint32(accepted)) {
				return
			}
		}
	}
}
