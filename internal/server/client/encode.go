package client

import (
	"encoding/json"
	"math"
	"strconv"

	"invarnetx/internal/server"
)

// appendRequest appends the JSON body of req, a server.IngestRequest or a
// server.DiagnoseRequest, to b: the bytes json.Marshal gives it, and its
// error on a NaN or infinite value, without reflection or a copy of the
// result. Strings that need an escape go through json.Marshal itself.
func appendRequest(b []byte, req any) ([]byte, error) {
	var err error
	switch r := req.(type) {
	case server.IngestRequest:
		b = appendIdentity(b, r.Workload, r.Node)
		b = append(b, `,"samples":`...)
		if b, err = appendSamples(b, r.Samples); err != nil {
			return b, err
		}
	case server.DiagnoseRequest:
		b = appendIdentity(b, r.Workload, r.Node)
		if len(r.Samples) > 0 {
			b = append(b, `,"samples":`...)
			if b, err = appendSamples(b, r.Samples); err != nil {
				return b, err
			}
		}
		if r.Wait {
			b = append(b, `,"wait":true`...)
		}
	default:
		panic("client: appendRequest of an unsupported request type")
	}
	return append(b, '}'), nil
}

// appendIdentity opens a request object with its workload and node members.
func appendIdentity(b []byte, workload, node string) []byte {
	b = appendString(append(b, `{"workload":`...), workload)
	return appendString(append(b, `,"node":`...), node)
}

// appendSamples appends samples as json.Marshal does: null when nil, Valid
// and CPIValid left out when empty.
func appendSamples(b []byte, samples []server.Sample) ([]byte, error) {
	if samples == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '[')
	for i, s := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"metrics":`...)
		if s.Metrics == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for m, v := range s.Metrics {
				if m > 0 {
					b = append(b, ',')
				}
				if b, err = appendFloat(b, v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		if b, err = appendFloat(append(b, `,"cpi":`...), s.CPI); err != nil {
			return b, err
		}
		if len(s.Valid) > 0 {
			b = append(b, `,"valid":[`...)
			for m, ok := range s.Valid {
				if m > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendBool(b, ok)
			}
			b = append(b, ']')
		}
		if s.CPIValid != nil {
			b = strconv.AppendBool(append(b, `,"cpiValid":`...), *s.CPIValid)
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendFloat appends f in encoding/json's format: the shortest decimal
// that reads back as f, in exponent form below 1e-6 and from 1e21 on, with
// a one-digit negative exponent unpadded. NaN and ±Inf are json.Marshal's
// own error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-09 to e-9
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

// appendString appends s quoted: as it is when every byte is printable ASCII
// that json.Marshal leaves alone, else json.Marshal's own escaping (its HTML
// escapes and its repair of invalid UTF-8 included).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
