package wire

import (
	"bytes"
	"testing"
)

// Wire-layer benchmarks: what one frame and one full-row response cost
// to encode and decode, with warm buffers as on a live connection.

var sink int

func BenchmarkFrameEncode(b *testing.B) {
	resp := GetResp{Found: true, RID: 1 << 20, Row: sampleRow()}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = BeginFrame(buf[:0])
		buf = resp.Marshal(buf)
		FinishFrame(buf, 0, uint64(i), TGetResp)
	}
	sink += len(buf)
}

func BenchmarkFrameDecode(b *testing.B) {
	resp := GetResp{Found: true, RID: 1 << 20, Row: sampleRow()}
	frame := AppendFrame(nil, 7, TGetResp, resp.Marshal(nil))
	var (
		rd  bytes.Reader
		buf []byte
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		f, nb, err := ReadFrame(&rd, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = nb
		sink += len(f.Payload)
	}
}

// BenchmarkGetRespCodec is the full-row response round trip: marshal
// into a warm buffer, unmarshal into a reused receiver (the strings the
// row owns are the allocations that remain).
func BenchmarkGetRespCodec(b *testing.B) {
	resp := GetResp{Found: true, RID: 1 << 20, Row: sampleRow()}
	var (
		buf []byte
		out GetResp
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = resp.Marshal(buf[:0])
		if err := out.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
	sink += len(out.Row)
}
