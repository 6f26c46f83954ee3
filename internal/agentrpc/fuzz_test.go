package agentrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzAgentRPCDecode feeds arbitrary byte streams to the request-frame
// decoder the server runs against every connection. It must never panic,
// never hand the policy a state above maxStateDim, and every frame it does
// accept must re-encode to the exact bytes it was decoded from (bit-level
// round trip, NaN payloads included).
func FuzzAgentRPCDecode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})             // ping
	f.Add([]byte{1, 0, 0, 0})             // truncated body
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff}) // oversized count
	two := appendRequest(nil, []float64{1.5, math.NaN()})
	f.Add(two)
	f.Add(append(append([]byte{}, two...), 0, 0, 0, 0))         // frame then ping
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})                    // largest count: oversized, no escape
	f.Add(binary.LittleEndian.AppendUint32(nil, maxStateDim+1)) // smallest oversized count
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newRequestReader(bytes.NewReader(data))
		off := 0 // byte offset of the current frame within data
		for {
			fr, err := dec.next()
			if err != nil {
				if errors.Is(err, errOversizedFrame) {
					count := binary.LittleEndian.Uint32(data[off:])
					if count <= maxStateDim {
						t.Fatalf("count %d rejected as oversized", count)
					}
				} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected decode error: %v", err)
				}
				return
			}
			switch fr.kind {
			case framePing:
				if fr.state != nil {
					t.Fatal("ping carried state")
				}
				off += 4
			case frameDecide:
				state := fr.state
				if len(state) == 0 || len(state) > maxStateDim {
					t.Fatalf("decoded state dim %d", len(state))
				}
				frameLen := 4 + len(state)*8
				if got := appendRequest(nil, state); !bytes.Equal(got, data[off:off+frameLen]) {
					t.Fatalf("re-encode of %d-dim frame at %d differs from wire bytes", len(state), off)
				}
				off += frameLen
			default:
				t.Fatalf("unknown frame kind %d", fr.kind)
			}
		}
	})
}

// TestRequestRoundTrip pins the encode side against a hand-built frame so
// the fuzz property (decode∘encode = id) can't be trivially satisfied by a
// broken pair of inverse bugs.
func TestRequestRoundTrip(t *testing.T) {
	state := []float64{0, -1, math.Inf(1), 1e-300, math.Float64frombits(0x7ff8000000000001)}
	raw := appendRequest(nil, state)
	if len(raw) != 4+8*len(state) {
		t.Fatalf("frame length %d", len(raw))
	}
	dec := newRequestReader(bytes.NewReader(raw))
	fr, err := dec.next()
	if err != nil || fr.kind != frameDecide {
		t.Fatalf("decode: kind=%v err=%v", fr.kind, err)
	}
	if len(fr.state) != len(state) {
		t.Fatalf("dim %d != %d", len(fr.state), len(state))
	}
	for i := range state {
		if math.Float64bits(fr.state[i]) != math.Float64bits(state[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(fr.state[i]), math.Float64bits(state[i]))
		}
	}
}

// TestResponseRoundTrip pins the typed response frame both ways.
func TestResponseRoundTrip(t *testing.T) {
	for _, status := range []byte{statusOK, statusBusy, statusErr} {
		raw := appendResponse(nil, status, 1.25, -0.5)
		if len(raw) != respSize {
			t.Fatalf("response length %d", len(raw))
		}
		var buf [respSize]byte
		got, mu, delta, err := readResponse(bytes.NewReader(raw), &buf)
		if err != nil || got != status || mu != 1.25 || delta != -0.5 {
			t.Fatalf("round trip: status=%d mu=%v delta=%v err=%v", got, mu, delta, err)
		}
	}
}
