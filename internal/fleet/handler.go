package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Wire shapes of the two gossip endpoints. Every request carries the
// sender's advertised address: receipt is passive liveness evidence, and
// unknown senders join the peer set up to its cap (healing one-sided
// bootstrap lists).

type syncRequest struct {
	From   string `json:"from"`
	Vector Vector `json:"vector"`
}

type syncResponse struct {
	From    string   `json:"from"`
	Vector  Vector   `json:"vector"`
	Records []Record `json:"records,omitempty"`
}

type pushRequest struct {
	From    string   `json:"from"`
	Records []Record `json:"records"`
}

type pushResponse struct {
	Applied int `json:"applied"`
}

// maxGossipBody bounds one gossip body, request or response. An exchange
// carries at most maxExchangeRecords records (see Store.Missing), which keeps
// a body the fleet itself built under this bound however long the log is.
const maxGossipBody = 8 << 20

// Handler returns the gossip surface, to be mounted under /v1/fleet/ on the
// daemon's existing HTTP listener — one port carries data, control and
// gossip, so -peers needs only the addresses the fleet already advertises.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sync", f.handleSync)
	mux.HandleFunc("POST /push", f.handlePush)
	return mux
}

// readBody decodes one gossip request strictly; a refusal is a 400 in the
// daemon's JSON error envelope.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxGossipBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBody(w, http.StatusBadRequest, map[string]string{"error": "fleet: decoding request: " + err.Error()})
		return false
	}
	return true
}

func writeBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleSync answers one pull: the caller's vector comes in, the records it
// is missing go out along with our own vector (so the caller can push back
// what we are missing — push-pull in one round trip pair).
func (f *Fleet) handleSync(w http.ResponseWriter, r *http.Request) {
	var req syncRequest
	if !readBody(w, r, &req) {
		return
	}
	f.seen(req.From)
	missing := f.store.Missing(req.Vector)
	f.recordsShipped.Add(int64(len(missing)))
	writeBody(w, http.StatusOK, syncResponse{From: f.cfg.Self, Vector: f.store.Vector(), Records: missing})
}

// handlePush applies records the sender determined we were missing.
func (f *Fleet) handlePush(w http.ResponseWriter, r *http.Request) {
	var req pushRequest
	if !readBody(w, r, &req) {
		return
	}
	f.seen(req.From)
	n := f.apply(req.Records)
	if n > 0 {
		f.lastChangeRound.Store(f.syncRounds.Load())
	}
	writeBody(w, http.StatusOK, pushResponse{Applied: n})
}

// post runs one gossip RPC against a peer.
func (f *Fleet) post(ctx context.Context, addr, path string, in, out any) error {
	buf, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/fleet"+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rpcClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s%s: HTTP %d", addr, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxGossipBody)).Decode(out); err != nil {
		return fmt.Errorf("fleet: decoding %s response: %w", path, err)
	}
	return nil
}
