package fleet

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fuzzFleet builds a peer whose store already holds local and replicated
// records, so a gossip body has clocks to move and a log to disturb.
func fuzzFleet() *Fleet {
	f := New(Config{Self: "self:1", Peers: []string{"p:1"}})
	f.Record("wordcount", "10.0.0.2", "cpu-hog", "0110")
	f.Record("wordcount", "10.0.0.2", "mem-hog", "1001")
	f.apply([]Record{
		{Origin: "p:1", Seq: 1, Workload: "sort", Node: "10.0.0.3", Problem: "disk-hog", Tuple: "0011"},
		{Origin: "p:1", Seq: 2, Workload: "sort", Node: "10.0.0.3", Problem: "net-drop", Tuple: "1100"},
	})
	return f
}

// FuzzGossipBody feeds arbitrary bytes to the two gossip decoders a peer can
// reach with records or clocks (/sync and /push). Whatever arrives, the
// handler answers 200 or 400 without panicking; a refused body leaves the
// vector and the log untouched; an accepted one never moves a clock
// backwards — this daemon's own included, which the next local label must
// advance — nor further forwards than the records it logged could reach,
// never shrinks or rewrites the log, and never answers with more than one
// exchange's worth of records. Whatever the sender names itself, the peer set
// stays within maxPeers and holds only host:port addresses.
func FuzzGossipBody(f *testing.F) {
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// The bodies a real exchange between two converging peers carries.
	peer := NewStore("p:1")
	peer.Append("sort", "10.0.0.3", "disk-hog", "0011")
	peer.Append("sort", "10.0.0.3", "net-drop", "1100")
	peer.Append("grep", "10.0.0.4", "lock-r", "010101")
	f.Add(false, mustJSON(syncRequest{From: "p:1", Vector: peer.Vector()}))
	f.Add(false, mustJSON(syncRequest{From: "new:1", Vector: Vector{}}))
	f.Add(true, mustJSON(pushRequest{From: "p:1", Records: peer.Missing(Vector{"p:1": 2})}))
	f.Add(true, mustJSON(pushRequest{From: "p:1", Records: peer.Missing(nil)}))
	// Shapes Apply must skip or survive.
	rec := func(origin, seq, tuple string) []byte {
		return []byte(`{"from":"p:1","records":[{"origin":"` + origin + `","seq":` + seq +
			`,"workload":"sort","node":"10.0.0.3","problem":"x","tuple":"` + tuple + `"}]}`)
	}
	f.Add(true, rec("p:1", "0", "0110"))                    // seq 0
	f.Add(true, rec("", "3", "0110"))                       // empty origin
	f.Add(true, rec("p:1", "3", "01x0"))                    // not a 0/1 tuple
	f.Add(true, rec("p:1", "18446744073709551615", "0110")) // 2^64-1
	f.Add(true, rec("p:1", "18446744073709551616", "0110")) // overflows uint64
	f.Add(true, rec("p:1", "-1", "0110"))
	f.Add(true, rec("x:1", "18446744073709551615", "0110"))      // forged seq on an unknown origin
	f.Add(true, rec("p:1", "8195", "0110"))                      // one past what an exchange reaches
	f.Add(true, rec("self:1", "5", "0110"))                      // own records coming home after a cold restart
	f.Add(true, []byte(`{"from":"p:1","records":[],"extra":1}`)) // unknown field
	f.Add(false, []byte(`{"from":"p:1","vector":{"p:1":18446744073709551615,"self:1":0}}`))
	f.Add(false, []byte(`{"from":"p:1","vector":{"p:1":-1}}`))
	f.Add(false, []byte(`{"from":"p:1","vector":[1,2]}`))
	f.Add(true, []byte(`{"from":"p:1","records":[`))
	f.Add(false, []byte(``))
	f.Add(false, []byte(`{"from":"no-port","vector":{}}`))
	f.Add(true, []byte(`{"from":"[::1]:7070","records":[]}`))

	f.Fuzz(func(t *testing.T, push bool, body []byte) {
		fl := fuzzFleet()
		vecBefore := fl.store.Vector()
		logBefore := append([]Record(nil), fl.store.log...)

		path := "/sync"
		if push {
			path = "/push"
		}
		w := httptest.NewRecorder()
		fl.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		vecAfter := fl.store.Vector()
		logAfter := fl.store.log
		peers := fl.Peers()
		if len(peers) > maxPeers {
			t.Fatalf("%s grew the peer set to %d, past the cap %d", path, len(peers), maxPeers)
		}
		for _, p := range peers {
			if _, _, err := net.SplitHostPort(p.Addr); err != nil {
				t.Fatalf("%s joined %q to the peer set: %v", path, p.Addr, err)
			}
		}
		switch w.Code {
		case http.StatusBadRequest:
			if !reflect.DeepEqual(vecAfter, vecBefore) || !reflect.DeepEqual(logAfter, logBefore) {
				t.Fatalf("refused %s body changed the store: vector %v -> %v, log %d -> %d records",
					path, vecBefore, vecAfter, len(logBefore), len(logAfter))
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s answered %d", path, w.Code)
		}
		if len(body) > maxGossipBody {
			t.Fatalf("%s accepted a %d-byte body, past the %d cap", path, len(body), maxGossipBody)
		}
		for origin, seq := range vecBefore {
			if vecAfter[origin] < seq {
				t.Fatalf("%s moved %s's clock backwards: %d -> %d", path, origin, seq, vecAfter[origin])
			}
		}
		if len(logAfter) < len(logBefore) || !reflect.DeepEqual(logAfter[:len(logBefore)], logBefore) {
			t.Fatalf("%s rewrote the log", path)
		}
		reach := make(Vector)
		for _, r := range logAfter[len(logBefore):] {
			if r.Origin == "" || r.Seq == 0 || r.Seq > vecAfter[r.Origin] {
				t.Fatalf("%s logged %+v under vector %v", path, r, vecAfter)
			}
			reach[r.Origin] += maxExchangeRecords
		}
		for origin, seq := range vecAfter {
			if seq-vecBefore[origin] > reach[origin] {
				t.Fatalf("%s moved %s's clock %d -> %d on %d records' reach", path, origin, vecBefore[origin], seq, reach[origin])
			}
		}
		// (A body that happens to carry this very content makes it a no-op.)
		if r, ok := fl.store.Append("grep", "10.0.0.9", "fresh-label", "101"); ok && fl.store.Vector()["self:1"] != vecAfter["self:1"]+1 {
			t.Fatalf("%s: next local label stamped %+v after self clock %d", path, r, vecAfter["self:1"])
		}
		if push {
			return
		}
		// A pull reads the store and nothing else.
		if len(logAfter) != len(logBefore) || !reflect.DeepEqual(vecAfter, vecBefore) {
			t.Fatalf("/sync changed the store")
		}
		var resp syncResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("/sync response does not decode: %v", err)
		}
		if len(resp.Records) > maxExchangeRecords {
			t.Fatalf("/sync shipped %d records in one exchange", len(resp.Records))
		}
	})
}

// TestGossipBodyPastTheCapIsRefused is the size half of the fuzz contract,
// which the fuzzer's small inputs never reach: a well-formed body longer than
// maxGossipBody is cut off by the reader, not decoded.
func TestGossipBodyPastTheCapIsRefused(t *testing.T) {
	fl := fuzzFleet()
	logLen := fl.store.Len()
	body := `{"from":"` + strings.Repeat("a", maxGossipBody) + `","records":[` +
		`{"origin":"p:1","seq":3,"workload":"sort","node":"10.0.0.3","problem":"x","tuple":"0110"}]}`
	w := httptest.NewRecorder()
	fl.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/push", strings.NewReader(body)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversize push answered %d, want 400", w.Code)
	}
	if fl.store.Len() != logLen || len(fl.Peers()) != 1 {
		t.Errorf("oversize push left a trace: log %d -> %d, peers %v", logLen, fl.store.Len(), fl.Peers())
	}
}

// TestGossipRefusalIsAJSONEnvelope: a gossip body the strict decoder refuses
// gets a 400 served as application/json whose body decodes to the daemon's
// error envelope, even when the decode error quotes the offending field.
func TestGossipRefusalIsAJSONEnvelope(t *testing.T) {
	fl := fuzzFleet()
	w := httptest.NewRecorder()
	body := `{"from":"p:1","vector":{},"bogus":1}`
	fl.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sync", strings.NewReader(body)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field answered %d, want 400", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("400 body %q is not JSON: %v", w.Body, err)
	}
	if !strings.Contains(env.Error, `"bogus"`) || !strings.HasPrefix(env.Error, "fleet: decoding request: ") {
		t.Errorf("error = %q, want the decode error naming \"bogus\"", env.Error)
	}
}
