package replication

// FuzzReplicationFrame drives the length-prefixed wire decoder with
// arbitrary bytes: truncated headers, truncated payloads, unknown
// types, absurd declared lengths, and garbage payloads must all error
// cleanly — never panic, and never allocate anywhere near a lying
// length header. Decoded frames are pushed through the payload
// decoders too, since that is exactly what a session does.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func FuzzReplicationFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameHello, 0, 0, 0, 16})
	// The retired cprepl/1 hello and untagged payloads, which a leader
	// must refuse or reject.
	f.Add(frameBytes(frameHello, []byte("cprepl/1\x00\x00\x00\x00\x00\x00\x00\x2a")))
	f.Add(frameBytes(frameBatch, encodeBatch(1, 3, []byte("A\t1\t\"u\"\tdeadbeef\tp\n"))))
	f.Add(frameBytes(frameSnapshot, encodeSnapshot(9, []byte("# cpjournal v2 snapshot\n"))))
	f.Add(frameBytes(frameHeartbeat, encodeSeq(7)))
	f.Add(frameBytes(frameAck, encodeSeq(8)))
	// Well-formed frames: the hello, segment-tagged payloads, and the
	// refusal frame.
	f.Add(frameBytes(frameHello, encodeHello(4, 2, 42)))
	f.Add(frameBytes(frameHello, encodeHello(0, 0, 1))) // zero shards must error, not panic
	f.Add(sentFrame(frameBatch, 2, encodeBatch(1, 3, []byte("A\t1\t\"u\"\tdeadbeef\tp\n"))))
	f.Add(sentFrame(frameSnapshot, 1, encodeSnapshot(9, []byte("# cpjournal v2 snapshot\n"))))
	f.Add(sentFrame(frameAck, 3, encodeSeq(8)))
	f.Add(frameBytes(frameRefuse, []byte("shard count mismatch: leader has 4 journal segments, follower declared 2")))
	f.Add(frameBytes(frameRefuse, []byte{}))
	// A header declaring 2 GiB with no payload behind it.
	huge := []byte{frameSnapshot, 0x7f, 0xff, 0xff, 0xff}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, _, payload, err := readFrame(r)
			if err != nil {
				break // any malformed input must land here, not panic
			}
			if len(payload) > len(data) {
				t.Fatalf("decoder produced %d payload bytes from %d input bytes", len(payload), len(data))
			}
			switch typ {
			case frameHello:
				decodeHello(payload)
			case frameBatch:
				decodeBatch(payload)
			case frameSnapshot:
				decodeSnapshot(payload)
			case frameHeartbeat, frameAck:
				decodeSeq(payload)
			case frameRefuse:
				decodeRefusal(payload)
			}
		}
	})
}

// FuzzReplicationFrameRoundTrip checks the codec against itself: every
// encodable frame decodes back to the same type, segment and payload.
func FuzzReplicationFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), []byte("x\n"))
	f.Add(uint64(7), uint64(12), []byte{})
	f.Fuzz(func(t *testing.T, a, b uint64, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		shards := uint32(b%1024) + 1
		seg := uint32(a % uint64(shards))
		var buf bytes.Buffer
		payloads := [][]byte{
			encodeHello(shards, seg, b),
			encodeBatch(a, b, data),
			encodeSnapshot(a, data),
			encodeSeq(b),
		}
		types := []byte{frameHello, frameBatch, frameSnapshot, frameAck}
		for _, err := range []error{
			writeFrame(&buf, frameHello, seg, payloads[0]),
			writeBatchFrame(&buf, seg, a, b, data),
			writeSnapshotFrame(&buf, seg, a, data),
			writeFrame(&buf, frameAck, seg, payloads[3]),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range payloads {
			typ, gotSeg, got, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			wantSeg := seg
			if typ == frameHello {
				wantSeg = 0
			}
			if typ != types[i] || gotSeg != wantSeg || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: round-trip mismatch", i)
			}
		}
		if _, _, _, err := readFrame(&buf); err != io.EOF {
			t.Fatalf("trailing read: %v, want EOF", err)
		}
		h, err := decodeHello(payloads[0])
		if err != nil || h.shards != shards || h.segment != seg || h.lastSeq != b {
			t.Fatalf("hello round-trip: %+v, %v", h, err)
		}
	})
}

// frameBytes renders one frame around a raw payload, with no segment
// tag added, for seed corpora.
func frameBytes(typ byte, payload []byte) []byte {
	b := make([]byte, frameHeaderLen+len(payload))
	b[0] = typ
	binary.BigEndian.PutUint32(b[1:], uint32(len(payload)))
	copy(b[frameHeaderLen:], payload)
	return b
}

// encodeBatch builds the payload writeBatchFrame sends.
func encodeBatch(firstSeq, commitSeq uint64, data []byte) []byte {
	return append(append(encodeSeq(firstSeq), encodeSeq(commitSeq)...), data...)
}

// encodeSnapshot builds the payload writeSnapshotFrame sends.
func encodeSnapshot(lastSeq uint64, data []byte) []byte {
	return append(encodeSeq(lastSeq), data...)
}

// sentFrame renders one frame exactly as writeFrame sends it.
func sentFrame(typ byte, seg uint32, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, typ, seg, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}
