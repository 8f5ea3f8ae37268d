package sweep

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// wire renders frames as the length-prefixed byte stream writeFrame
// produces.
func wire(frames ...[]byte) []byte {
	var b bytes.Buffer
	for _, f := range frames {
		writeFrame(&b, f)
	}
	return b.Bytes()
}

// FuzzFrames feeds arbitrary frame streams to every decoder that reads
// sweep frames off the network: the HELLO check, the worker's RUN and
// SNAP decodes, and the coordinator's reply decode. None may panic, and
// a frame that decodes must re-encode to exactly its own bytes, so no
// field is silently dropped or misread.
func FuzzFrames(f *testing.F) {
	f.Add(wire(helloFrame()))
	f.Add(wire(runFrame(3, []byte(`{"name":"avl"}`))))
	f.Add(wire(needSnapFrame("0123abcd")))
	f.Add(wire(snapFrame("0123abcd", true, []byte("snapshot"))))
	f.Add(wire(resultFrame(3, []byte(`{"result":{}}`))))
	f.Add(wire(errorFrame(3, "workload exploded")))
	f.Add(wire(helloFrame(), runFrame(1, []byte("spec")))[:14]) // truncated mid-frame
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) >= 4 {
			n := binary.BigEndian.Uint32(data)
			data = data[4:]
			if uint64(n) > uint64(len(data)) {
				return // a declared length past the input: readFrame would wait for more
			}
			p := data[:n]
			data = data[n:]

			_ = checkHello(p)
			if id, spec, err := decodeRun(p); err == nil {
				if re := runFrame(id, spec); !bytes.Equal(re, p) {
					t.Fatalf("RUN frame %x re-encodes to %x", p, re)
				}
			}
			if rp, err := decodeReply(p); err == nil {
				var re []byte
				switch rp.t {
				case tNeedSnap:
					re = needSnapFrame(rp.key)
				case tResult:
					re = resultFrame(rp.id, rp.payload)
				case tError:
					re = errorFrame(rp.id, rp.msg)
				}
				if !bytes.Equal(re, p) {
					t.Fatalf("reply frame %x re-encodes to %x", p, re)
				}
			}
			decodeSnap(p)
		}
	})
}
