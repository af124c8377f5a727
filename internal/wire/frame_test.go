package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte("nblb"), 1000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		buf.Write(AppendFrame(nil, uint64(i*7+1), uint8(i+1), p))
	}
	var scratch []byte
	for i, p := range payloads {
		var f Frame
		var err error
		f, scratch, err = ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ReqID != uint64(i*7+1) || f.Type != uint8(i+1) {
			t.Errorf("frame %d: reqID=%d type=%d", i, f.ReqID, f.Type)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Errorf("frame %d: payload mismatch (%d vs %d bytes)", i, len(f.Payload), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameTornRejected(t *testing.T) {
	full := AppendFrame(nil, 9, TApply, []byte("hello world"))
	// Every strict prefix must fail with EOF (empty) or UnexpectedEOF,
	// never a zero-value success.
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err == nil {
			t.Fatalf("cut at %d: torn frame accepted", cut)
		}
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
}

func TestFrameBadCRCRejected(t *testing.T) {
	full := AppendFrame(nil, 1, TPing, []byte("abcdef"))
	// Flip one bit anywhere past the length prefix: CRC must catch it.
	for i := 4; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		if _, _, err := ReadFrame(bytes.NewReader(mut), nil); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("bit flip at %d: err = %v, want ErrBadCRC", i, err)
		}
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame feeds raw bytes to the frame decoder: it must never
// panic or return a frame whose re-encoding differs from its claim.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, 1, TPing, nil))
	f.Add(AppendFrame(nil, 42, TApply, []byte("payload")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// A decoded frame must re-encode to exactly the bytes consumed.
		enc := AppendFrame(nil, fr.ReqID, fr.Type, fr.Payload)
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, data[:len(enc)])
		}
	})
}

// FuzzFrameRoundTrip fuzzes the encode→decode pipe with arbitrary
// payload, id and type.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), []byte{})
	f.Add(uint64(1<<63), uint8(TQueryPage), []byte("rows"))
	f.Fuzz(func(t *testing.T, reqID uint64, typ uint8, payload []byte) {
		buf := AppendFrame(nil, reqID, typ, payload)
		fr, _, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if fr.ReqID != reqID || fr.Type != typ || !bytes.Equal(fr.Payload, payload) {
			t.Fatalf("round trip mutated frame: %+v", fr)
		}
	})
}
