package remote

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRemoteFrame drives the wire framing with arbitrary input. Reading
// any byte stream frame by frame must end in an error, never a panic;
// and a frame built from the fuzz arguments must survive
// writeMsg→readMsg unchanged, twice back to back, consuming exactly the
// bytes written.
func FuzzRemoteFrame(f *testing.F) {
	var exec bytes.Buffer
	if err := writeMsg(&exec, &msg{Op: opExec, Seq: 7, Indices: []int{3, 4, 5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(exec.Bytes(), opJobDone, uint64(9), 12, []byte("row-0012"), "", int64(1500))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, opRefuse, uint64(0), -1, []byte(nil), "bad spec", int64(0))
	f.Add([]byte{3, 0, 0, 0, 0x01, 0x02, 0x03}, opHello, uint64(1)<<63, 0, []byte{0, 1, 2, 3}, "\xff", int64(-7))
	f.Fuzz(func(t *testing.T, raw []byte, op uint8, seq uint64, index int, payload []byte, errText string, durNS int64) {
		for r := bytes.NewReader(raw); ; {
			if _, err := readMsg(r); err != nil {
				break
			}
		}

		// gob omits empty fields, so empty slices are built as nil to
		// compare equal after decoding.
		want := &msg{Op: op, Proto: ProtoVersion, Seq: seq, Index: index, Err: errText, DurNS: durNS}
		if len(payload) > 0 {
			want.Payload = payload
		}
		if half := payload[:len(payload)/2]; len(half) > 0 {
			want.Spec = half
		}
		for i, b := range raw {
			if i == 64 {
				break
			}
			want.Indices = append(want.Indices, int(int8(b))*index)
		}
		var buf bytes.Buffer
		for i := 0; i < 2; i++ {
			if err := writeMsg(&buf, want); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			got, err := readMsg(&buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d round-tripped to %+v, want %+v", i, got, want)
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes left after reading both frames", buf.Len())
		}
	})
}
