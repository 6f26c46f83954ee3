package agentrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file isolates the wire framing into pure encode/decode helpers shared
// by the client and server — and, because they take no sockets, directly
// fuzzable.
//
// Request stream (little endian), one frame per message:
//
//	decide: u32 count (1..maxStateDim) | count × f64 state
//	ping:   u32 0
//
// Response (always respSize bytes):
//
//	u8 status | f64 mu | f64 delta
//
// A decide is answered with statusOK and the decision, statusBusy when
// admission control shed the request, or statusErr when the policy failed
// (panic, non-finite output, server-side deadline). BUSY and ERR are *typed*
// responses: the stream stays in sync and the connection stays usable, the
// client just serves that one decision from its local fallback. A ping is
// answered with statusOK and zeros.

// errOversizedFrame reports a request whose count exceeds maxStateDim; the
// server drops the connection on it rather than allocating attacker-chosen
// amounts of memory.
var errOversizedFrame = errors.New("agentrpc: request frame exceeds maxStateDim")

// Response status codes.
const (
	statusOK   byte = 0
	statusBusy byte = 1 // admission control shed the request
	statusErr  byte = 2 // policy panic, non-finite output, or serving deadline
)

// respSize is the fixed response frame length: status byte + two f64.
const respSize = 1 + 8 + 8

// frameKind discriminates decoded request frames.
type frameKind uint8

const (
	frameDecide frameKind = iota
	framePing
)

// frame is one decoded request-stream message. state aliases the reader's
// scratch buffer and is valid until the following next call.
type frame struct {
	kind  frameKind
	state []float64
}

// appendRequest appends the wire encoding of one decide frame to dst and
// returns the extended slice. An empty state encodes a ping.
func appendRequest(dst []byte, state []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	for _, v := range state {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendResponse appends the fixed-size response frame to dst.
func appendResponse(dst []byte, status byte, mu, delta float64) []byte {
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(mu))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(delta))
}

// readResponse reads one response frame into buf and decodes it.
func readResponse(r io.Reader, buf *[respSize]byte) (status byte, mu, delta float64, err error) {
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, 0, err
	}
	mu = math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))
	delta = math.Float64frombits(binary.LittleEndian.Uint64(buf[9:]))
	return buf[0], mu, delta, nil
}

// requestReader decodes request frames from a byte stream, reusing its
// scratch buffers across frames (the server keeps one per connection). The
// stream is buffered, so a frame's header and body — and any frames the peer
// pipelined behind it — cost one read of the underlying connection.
type requestReader struct {
	r   *bufio.Reader
	hdr [4]byte
	raw []byte
	buf []float64
}

func newRequestReader(r io.Reader) *requestReader {
	return &requestReader{r: bufio.NewReader(r), raw: make([]byte, 0, 64*8), buf: make([]float64, 0, 64)}
}

// next reads one frame. The returned frame's state is valid until the
// following call. Errors are io errors from the
// underlying reader or errOversizedFrame for a count above maxStateDim.
func (d *requestReader) next() (frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return frame{}, err
	}
	count := binary.LittleEndian.Uint32(d.hdr[:])
	switch {
	case count == 0:
		return frame{kind: framePing}, nil
	case count > maxStateDim:
		return frame{}, fmt.Errorf("%w: count %d", errOversizedFrame, count)
	}
	need := int(count) * 8
	if cap(d.raw) < need {
		d.raw = make([]byte, need)
	}
	d.raw = d.raw[:need]
	if _, err := io.ReadFull(d.r, d.raw); err != nil {
		return frame{}, err
	}
	d.buf = d.buf[:0]
	for i := 0; i < int(count); i++ {
		d.buf = append(d.buf, math.Float64frombits(binary.LittleEndian.Uint64(d.raw[i*8:])))
	}
	return frame{kind: frameDecide, state: d.buf}, nil
}
