package client

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"invarnetx/internal/server"
)

// FrameConn streams binary ingest frames over invarnetd's raw TCP listener
// (`invarnetd -ingest-tcp`): one length-prefixed frame out, one 5-byte
// status response back, per batch. Not safe for concurrent use — open one
// connection per sending goroutine, the way a per-node telemetry agent
// would.
type FrameConn struct {
	c   net.Conn
	buf []byte
}

// DialIngest connects to a raw TCP ingest listener.
func DialIngest(addr string) (*FrameConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &FrameConn{c: c}, nil
}

// Send encodes one batch as a binary frame, writes it, and waits for the
// server's response. A shed frame (server queue full) surfaces as an
// *APIError that IsShed recognises, so callers reuse the HTTP backoff
// logic; any other non-accepted status is terminal for the connection.
func (fc *FrameConn) Send(workload, node string, samples []server.Sample) (accepted int, err error) {
	fc.buf, err = server.AppendFrame(fc.buf[:0], workload, node, samples)
	if err != nil {
		return 0, fmt.Errorf("client: encoding frame: %w", err)
	}
	if _, err := fc.c.Write(fc.buf); err != nil {
		return 0, err
	}
	var resp [5]byte
	if _, err := io.ReadFull(fc.c, resp[:]); err != nil {
		return 0, err
	}
	detail := binary.LittleEndian.Uint32(resp[1:])
	switch resp[0] {
	case server.FrameAccepted:
		return int(detail), nil
	case server.FrameShed:
		return 0, &APIError{
			StatusCode: http.StatusTooManyRequests,
			Message:    "server: ingest queue full (TCP shed)",
			RetryAfter: time.Second,
		}
	case server.FrameDraining:
		return 0, &APIError{StatusCode: http.StatusServiceUnavailable, Message: "server is draining"}
	default:
		return 0, &APIError{StatusCode: http.StatusBadRequest, Message: "server rejected the frame"}
	}
}

// Close closes the underlying connection.
func (fc *FrameConn) Close() error { return fc.c.Close() }
