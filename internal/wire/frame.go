// Package wire implements the nblb network protocol: length-prefixed
// checksummed frames carrying request-ID-tagged messages, plus a
// self-describing codec for rows and values so clients need no schema
// to decode results.
//
// Frame layout (all integers little-endian):
//
//	[uint32 payloadLen] [uint32 crc32c] [uint64 reqID] [uint8 type] [payload]
//
// payloadLen counts only the payload bytes; the CRC (Castagnoli) covers
// reqID, type, and payload, so a torn or bit-flipped frame — including
// its header tail — is rejected before dispatch. Request IDs let a
// pipelined connection complete out of order: the server echoes the
// ID of the request each response answers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a frame's payload. Frames claiming more are rejected
// without allocating, so a corrupt length prefix cannot OOM the peer.
const MaxFrame = 16 << 20

// headerSize is the fixed prefix before the payload.
const headerSize = 4 + 4 + 8 + 1

// Message types. Requests and responses share one space; a response's
// type is independent of its request's (e.g. most DDL acks are TOK).
const (
	TErr          uint8 = 1  // ErrResp — request failed
	TOK           uint8 = 2  // empty ack
	TPing         uint8 = 3  // empty liveness probe (response: TOK)
	TApply        uint8 = 4  // ApplyReq
	TApplyResp    uint8 = 5  // ApplyResp
	TGet          uint8 = 6  // GetReq — point lookup
	TGetResp      uint8 = 7  // GetResp
	TQuery        uint8 = 8  // QueryReq — opens a streaming cursor
	TQueryPage    uint8 = 9  // QueryPage — one page; Last marks the end
	TCreateTable  uint8 = 10 // CreateTableReq (response: TOK)
	TCreateIndex  uint8 = 11 // CreateIndexReq (response: TOK)
	TCheckpoint   uint8 = 12 // empty — force a checkpoint (response: TOK)
	TStats        uint8 = 13 // empty — engine counters (response: TStatsResp)
	TStatsResp    uint8 = 14 // StatsResp
	TTxnBegin     uint8 = 15 // empty — open a snapshot transaction (response: TTxnBeginResp)
	TTxnBeginResp uint8 = 16 // TxnBeginResp
	TTxnCommit    uint8 = 17 // TxnFinishReq — commit (response: TOK, or TErr on conflict)
	TTxnAbort     uint8 = 18 // TxnFinishReq — abort (response: TOK)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Protocol errors surfaced by ReadFrame.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadCRC        = errors.New("wire: frame checksum mismatch")
)

// Frame is one decoded protocol frame.
type Frame struct {
	ReqID   uint64
	Type    uint8
	Payload []byte
}

// BeginFrame opens a frame at the end of dst by reserving its header;
// the caller appends the payload directly behind it (m.Marshal(dst))
// and seals the frame with FinishFrame. Encoding in place spares the
// payload→frame copy and any buffer but the one that goes to the
// socket:
//
//	off := len(buf)
//	buf = wire.BeginFrame(buf)
//	buf = msg.Marshal(buf)
//	wire.FinishFrame(buf, off, reqID, typ)
func BeginFrame(dst []byte) []byte {
	return append(dst, make([]byte, headerSize)...)
}

// FinishFrame seals the frame BeginFrame opened at dst[off:]: every
// byte behind the reserved header is its payload. It patches the
// length, request ID and type, then the CRC over all three. Sealing
// again with another request ID is allowed (a retried request reuses
// its encoded payload).
func FinishFrame(dst []byte, off int, reqID uint64, typ uint8) {
	n := len(dst) - off - headerSize
	if n > MaxFrame {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxFrame", n))
	}
	binary.LittleEndian.PutUint32(dst[off:], uint32(n))
	binary.LittleEndian.PutUint64(dst[off+8:], reqID)
	dst[off+16] = typ
	crc := crc32.Checksum(dst[off+8:], castagnoli)
	binary.LittleEndian.PutUint32(dst[off+4:], crc)
}

// AppendFrame appends a complete frame around an already encoded
// payload and returns the extended slice — BeginFrame/FinishFrame for
// callers that hold the payload as bytes.
func AppendFrame(dst []byte, reqID uint64, typ uint8, payload []byte) []byte {
	off := len(dst)
	dst = append(BeginFrame(dst), payload...)
	FinishFrame(dst, off, reqID, typ)
	return dst
}

// ReadFrame reads the next frame into buf, growing it when the frame
// does not fit, and returns the buffer for the next call: a reader
// that threads it through allocates nothing per frame. The frame's
// payload aliases the buffer — decode it (Unmarshal copies out what it
// keeps) before the next ReadFrame into the same buffer. A short read
// mid-frame returns io.ErrUnexpectedEOF (a cleanly closed connection
// returns io.EOF only at a frame boundary); an oversized length prefix
// returns ErrFrameTooLarge and a checksum mismatch ErrBadCRC — both
// before any payload escapes to dispatch.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read into buf itself: a local array would escape
	// through the io.Reader and cost an allocation per frame.
	if cap(buf) < headerSize {
		buf = make([]byte, headerSize, 512)
	}
	buf = buf[:headerSize]
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFrame {
		return Frame{}, buf, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return Frame{}, buf, unexpectedEOF(err)
	}
	if need := headerSize + int(n); cap(buf) < need {
		buf = append(make([]byte, 0, need), buf...)
	}
	buf = buf[:headerSize+int(n)]
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return Frame{}, buf, unexpectedEOF(err)
	}
	if crc32.Checksum(buf[8:], castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return Frame{}, buf, ErrBadCRC
	}
	return Frame{
		ReqID:   binary.LittleEndian.Uint64(buf[8:]),
		Type:    buf[16],
		Payload: buf[headerSize:],
	}, buf, nil
}

// unexpectedEOF maps a clean EOF inside a frame to the torn-frame error.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
