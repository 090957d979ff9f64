package client

import (
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
)

// scriptConn is a net.Conn whose reads pop canned 5-byte frame responses and
// whose writes can be failed on demand — the TCP ingest listener in a test
// tube, no sockets.
type scriptConn struct {
	net.Conn // nil: only Read and Write are reached
	response []byte
	writeErr error
	writes   int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.response == nil {
		return 0, errors.New("script: no response left")
	}
	n := copy(p, c.response)
	c.response = nil
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	return len(p), nil
}

func frameResp(status byte, detail uint32) []byte {
	var b [5]byte
	b[0] = status
	binary.LittleEndian.PutUint32(b[1:], detail)
	return b[:]
}

// TestFrameConnSendSurfacesStatus pins what Send hands its caller for each
// server response: accepted counts come back as-is; shed and draining are
// *APIError with the HTTP path's status codes (shed recognised by IsShed and
// carrying the listener's implicit 1 s Retry-After, so one backoff serves
// both transports); a rejected frame is a 400; a batch the encoder refuses
// never reaches the wire; a transport failure is not an *APIError.
func TestFrameConnSendSurfacesStatus(t *testing.T) {
	good := []server.Sample{{Metrics: make([]float64, metrics.Count), CPI: 1}}
	broken := errors.New("broken pipe")
	for _, tc := range []struct {
		name     string
		conn     *scriptConn
		samples  []server.Sample
		accepted int
		status   int // expected *APIError status; 0 with no accepted = a non-API failure
	}{
		{name: "accepted", conn: &scriptConn{response: frameResp(server.FrameAccepted, 7)}, samples: good, accepted: 7},
		{name: "shed", conn: &scriptConn{response: frameResp(server.FrameShed, 0)}, samples: good, status: http.StatusTooManyRequests},
		{name: "draining", conn: &scriptConn{response: frameResp(server.FrameDraining, 0)}, samples: good, status: http.StatusServiceUnavailable},
		{name: "rejected", conn: &scriptConn{response: frameResp(server.FrameBad, 0)}, samples: good, status: http.StatusBadRequest},
		{name: "transport", conn: &scriptConn{writeErr: broken}, samples: good},
		{name: "unencodable", conn: &scriptConn{}, samples: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := &FrameConn{c: tc.conn}
			n, err := fc.Send("wc", "n1", tc.samples)
			if n != tc.accepted {
				t.Errorf("accepted = %d, want %d", n, tc.accepted)
			}
			var ae *APIError
			switch {
			case tc.accepted > 0:
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
			case tc.status != 0:
				if !errors.As(err, &ae) || ae.StatusCode != tc.status {
					t.Fatalf("error %v, want *APIError with status %d", err, tc.status)
				}
				if shed := tc.status == http.StatusTooManyRequests; IsShed(err) != shed || (shed && ae.RetryAfter != time.Second) {
					t.Errorf("IsShed = %v, RetryAfter = %v", IsShed(err), ae.RetryAfter)
				}
			default:
				if err == nil || errors.As(err, &ae) {
					t.Fatalf("error %v, want a failure that is not an *APIError", err)
				}
				if sent := tc.samples != nil; (tc.conn.writes > 0) != sent || errors.Is(err, broken) != sent {
					t.Errorf("error %v after %d writes", err, tc.conn.writes)
				}
			}
		})
	}
}
