//go:build !race

package wire

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

// Frames cost no allocation once their buffers are warm. (Not under
// -race: the detector changes allocation counts.)
func TestFrameCodecAllocFree(t *testing.T) {
	resp := GetResp{Found: true, RID: 1 << 20, Row: sampleRow()}
	page := QueryPage{Rows: []tuple.Row{sampleRow(), sampleRow()[:3]}, RIDs: []uint64{1, 2}, Last: true}
	var buf []byte
	encode := func() {
		buf = BeginFrame(buf[:0])
		buf = resp.Marshal(buf)
		FinishFrame(buf, 0, 9, TGetResp)
		off := len(buf)
		buf = BeginFrame(buf)
		buf = page.Marshal(buf)
		FinishFrame(buf, off, 10, TQueryPage)
	}
	encode() // warm
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Errorf("in-place frame encode into a warm buffer: %v allocs, want 0", n)
	}

	frames := append([]byte(nil), buf...)
	var (
		rd   bytes.Reader
		rbuf []byte
	)
	decode := func() {
		rd.Reset(frames)
		for i := 0; i < 2; i++ {
			_, nb, err := ReadFrame(&rd, rbuf)
			if err != nil {
				t.Fatal(err)
			}
			rbuf = nb
		}
	}
	decode() // warm
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("ReadFrame into a warm buffer: %v allocs, want 0", n)
	}
}
