// Binary ingest frame codec. A frame is the compact columnar encoding of
// one IngestRequest — the wire format for ingest at rates the JSON surface
// cannot carry. A frame travels as a POST /v1/ingest body under
// Content-Type application/x-invarnet-frame.
//
// Layout (all integers little-endian), preceded by a u32 length prefix
// covering everything after it:
//
//	[0:4]   magic "IXF1"
//	[4]     version (1)
//	[5]     flags: bit0 = metric validity bitmaps present,
//	               bit1 = CPI validity bitmap present
//	[6]     workload length (1..255)
//	[7]     node length (1..255)
//	[8:10]  u16 metric count (must equal metrics.Count)
//	[10:14] u32 sample count n (1..MaxFrameSamples)
//	        workload bytes, node bytes
//	        metric columns: count × n float64, column-major
//	        CPI column: n float64
//	        (flags&1) metric validity bitmaps: count × ⌈n/8⌉ bytes,
//	                  column-major, LSB-first, set bit = valid
//	        (flags&2) CPI validity bitmap: ⌈n/8⌉ bytes
//
// The declared sizes must account for the frame exactly: a decoder sizes
// nothing from the header before checking it against the bytes actually
// present, so a crafted count can never force an oversized allocation.
package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"invarnetx/internal/metrics"
)

// ContentTypeFrame is the media type selecting the binary ingest codec on
// POST /v1/ingest.
const ContentTypeFrame = "application/x-invarnet-frame"

const (
	frameMagic   = "IXF1"
	frameVersion = 1

	frameFlagValid    = 1 << 0
	frameFlagCPIValid = 1 << 1

	frameHeaderLen = 14

	// MaxFrameSamples bounds one frame's sample count; with the 26-metric
	// vector this keeps the largest legal frame (~7 MB) inside the HTTP
	// body bound.
	MaxFrameSamples = 32768
)

// frameBodySize returns the exact body length (after the length prefix) the
// header fields imply.
func frameBodySize(wlen, nlen, count, n int, flags byte) int {
	size := frameHeaderLen + wlen + nlen + count*n*8 + n*8
	if flags&frameFlagValid != 0 {
		size += count * ((n + 7) / 8)
	}
	if flags&frameFlagCPIValid != 0 {
		size += (n + 7) / 8
	}
	return size
}

// AppendFrame appends the length-prefixed binary frame encoding one ingest
// batch to dst and returns the extended slice. The samples are validated
// with the same shape and finiteness rules the JSON path enforces; validity
// bitmaps are emitted only when some entry is actually masked.
func AppendFrame(dst []byte, workload, node string, samples []Sample) ([]byte, error) {
	if len(workload) < 1 || len(workload) > 255 {
		return nil, fmt.Errorf("server: workload length %d outside [1,255]", len(workload))
	}
	if len(node) < 1 || len(node) > 255 {
		return nil, fmt.Errorf("server: node length %d outside [1,255]", len(node))
	}
	if err := validateSamples(samples); err != nil {
		return nil, err
	}
	n := len(samples)
	if n > MaxFrameSamples {
		return nil, fmt.Errorf("server: %d samples exceed the %d per-frame bound", n, MaxFrameSamples)
	}
	var flags byte
	for _, s := range samples {
		if s.Valid != nil {
			flags |= frameFlagValid
		}
		if s.CPIValid != nil && !*s.CPIValid {
			flags |= frameFlagCPIValid
		}
	}
	bodyLen := frameBodySize(len(workload), len(node), metrics.Count, n, flags)
	start := len(dst)
	dst = append(dst, make([]byte, 4+bodyLen)...)
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf, uint32(bodyLen))
	body := buf[4:]
	copy(body, frameMagic)
	body[4] = frameVersion
	body[5] = flags
	body[6] = byte(len(workload))
	body[7] = byte(len(node))
	binary.LittleEndian.PutUint16(body[8:], uint16(metrics.Count))
	binary.LittleEndian.PutUint32(body[10:], uint32(n))
	off := frameHeaderLen
	off += copy(body[off:], workload)
	off += copy(body[off:], node)
	for m := 0; m < metrics.Count; m++ {
		for _, s := range samples {
			binary.LittleEndian.PutUint64(body[off:], math.Float64bits(s.Metrics[m]))
			off += 8
		}
	}
	for _, s := range samples {
		binary.LittleEndian.PutUint64(body[off:], math.Float64bits(s.CPI))
		off += 8
	}
	if flags&frameFlagValid != 0 {
		stride := (n + 7) / 8
		for m := 0; m < metrics.Count; m++ {
			col := body[off : off+stride]
			for i, s := range samples {
				if s.Valid == nil || s.Valid[m] {
					col[i/8] |= 1 << (i % 8)
				}
			}
			off += stride
		}
	}
	if flags&frameFlagCPIValid != 0 {
		stride := (n + 7) / 8
		col := body[off : off+stride]
		for i, s := range samples {
			if s.CPIValid == nil || *s.CPIValid {
				col[i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst, nil
}

// splitFrame strips and checks the u32 length prefix, returning the frame
// body. The prefix must account for every remaining byte exactly.
func splitFrame(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("server: frame shorter than its length prefix")
	}
	n := binary.LittleEndian.Uint32(buf)
	if int(n) != len(buf)-4 {
		return nil, fmt.Errorf("server: frame prefix declares %d bytes, %d present", n, len(buf)-4)
	}
	return buf[4:], nil
}

// decodeFrame parses one frame body (after the length prefix) into b,
// applying the maskValue gap semantics to the decoded columns, and returns
// the workload and node identities as subslices of body (the caller owns
// the string conversion). Every value is checked finite — a frame is the one
// surface that could smuggle NaN/Inf past the JSON syntax, and a non-finite
// value would poison the MIC and detector state downstream. Errors never
// leave partial state visible: b is only filled after the whole frame is
// accounted for.
func decodeFrame(body []byte, b *ingestBatch) (workload, node []byte, err error) {
	if len(body) < frameHeaderLen {
		return nil, nil, fmt.Errorf("server: frame body %d bytes, want at least %d", len(body), frameHeaderLen)
	}
	if string(body[:4]) != frameMagic {
		return nil, nil, fmt.Errorf("server: bad frame magic %q", body[:4])
	}
	if body[4] != frameVersion {
		return nil, nil, fmt.Errorf("server: unsupported frame version %d", body[4])
	}
	flags := body[5]
	if flags&^(frameFlagValid|frameFlagCPIValid) != 0 {
		return nil, nil, fmt.Errorf("server: unknown frame flags %#x", flags)
	}
	wlen, nlen := int(body[6]), int(body[7])
	if wlen == 0 || nlen == 0 {
		return nil, nil, fmt.Errorf("server: empty workload or node identity")
	}
	count := int(binary.LittleEndian.Uint16(body[8:]))
	if count != metrics.Count {
		return nil, nil, fmt.Errorf("server: frame carries %d metrics, want %d", count, metrics.Count)
	}
	n := int(binary.LittleEndian.Uint32(body[10:]))
	if n < 1 || n > MaxFrameSamples {
		return nil, nil, fmt.Errorf("server: frame sample count %d outside [1,%d]", n, MaxFrameSamples)
	}
	if size := frameBodySize(wlen, nlen, count, n, flags); len(body) != size {
		return nil, nil, fmt.Errorf("server: frame body %d bytes, header implies %d", len(body), size)
	}
	off := frameHeaderLen
	workload = body[off : off+wlen]
	off += wlen
	node = body[off : off+nlen]
	off += nlen

	cols := body[off : off+count*n*8]
	off += count * n * 8
	cpis := body[off : off+n*8]
	off += n * 8
	stride := (n + 7) / 8
	var validBits, cpiBits []byte
	if flags&frameFlagValid != 0 {
		validBits = body[off : off+count*stride]
		off += count * stride
	}
	if flags&frameFlagCPIValid != 0 {
		cpiBits = body[off : off+stride]
	}

	b.ensure(n)
	for m := 0; m < count; m++ {
		col := cols[m*n*8 : (m+1)*n*8]
		var bits []byte
		if validBits != nil {
			bits = validBits[m*stride : (m+1)*stride]
		}
		dst := b.cols[m*n : (m+1)*n]
		ok := b.valid[m*n : (m+1)*n]
		for i := 0; i < n; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(col[i*8:]))
			if !isFinite(v) {
				return nil, nil, badValueError(m, i, v)
			}
			valid := bits == nil || bits[i/8]&(1<<(i%8)) != 0
			dst[i] = maskValue(v, valid)
			ok[i] = valid
		}
	}
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(cpis[i*8:]))
		if !isFinite(v) {
			return nil, nil, fmt.Errorf("server: cpi at sample %d is %v (gaps ride validity masks, not non-finite values)", i, v)
		}
		valid := cpiBits == nil || cpiBits[i/8]&(1<<(i%8)) != 0
		b.cpi[i] = maskValue(v, valid)
		b.cpiOK[i] = valid
	}
	return workload, node, nil
}
