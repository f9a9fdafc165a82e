// Package replication ships committed journal batches from a leader to
// read-only followers over a length-prefixed TCP protocol, giving the
// read-heavy resolution workload horizontally scalable replicas with an
// explicit staleness contract.
//
// # Wire format
//
// Every frame is a 1-byte type, a 4-byte big-endian payload length, and
// the payload. Sequence numbers are big-endian u64; shard counts and
// segment IDs are big-endian u32. The frame types:
//
//	'H' hello      follower → leader   "cprepl/2" + shards + segment + lastSeq
//	'S' snapshot   leader → follower   segment + lastSeq + snapshot file rendering
//	'B' batch      leader → follower   segment + firstSeq + commitSeq + batch bytes
//	'P' heartbeat  leader → follower   segment + leader lastSeq
//	'A' ack        follower → leader   segment + follower applied seq
//	'E' refuse     leader → follower   UTF-8 reason; the leader closes
//
// # Segments
//
// A store keeps one journal segment per shard (N ≥ 1), and each segment
// replicates on its own connection — its own logical stream — so a
// stall or fault on one segment never blocks another. A session opens
// with a hello that names the follower's shard count, the segment this
// connection carries, and the follower's lastSeq for that segment.
// Every later frame but the refusal starts its payload with the 4-byte
// segment ID, so a misrouted frame is detected rather than grafted
// into the wrong shard.
//
// The leader refuses a session it cannot serve with an 'E' frame
// before closing: a hello it does not recognize (such as the retired
// cprepl/1 revision), or a shard-count mismatch (grafting segment k of
// an N-shard stream into an M-shard store would corrupt it). A refused
// follower stops instead of retrying.
//
// Batch and snapshot payloads reuse the journal's on-disk encoding
// byte-for-byte — CRC-framed record lines plus the batch commit marker
// — so the transport inherits the disk format's torn-tail and
// corruption detection, and a follower's journal is directly
// comparable to its leader's. The frame length is bounded by MaxFrame;
// a decoder reads through io.LimitReader, so a lying length can make it
// error, never over-allocate.
//
// # Session
//
// A follower dials the leader, sends hello with the newest sequence
// number its local journal holds, and the leader responds with either
// an incremental stream of batches after that point or — when the
// follower is behind the leader's snapshot horizon, or its hello does
// not align with a batch boundary — a snapshot frame to install first,
// followed by the journal tail. Thereafter the leader pushes every
// committed batch as it happens and a heartbeat each interval;
// the follower acks the newest sequence it has durably applied.
// Recovery from any transport fault is by reconnecting: the new hello
// names what the follower already has, duplicate batches are skipped
// idempotently by sequence number, and a gap forces a fresh bootstrap.
package replication

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame types. The values are printable so captures read naturally.
const (
	frameHello     = 'H'
	frameSnapshot  = 'S'
	frameBatch     = 'B'
	frameHeartbeat = 'P'
	frameAck       = 'A'
	frameRefuse    = 'E'
)

// helloMagic opens every session; a mismatch means the peer is not
// speaking this protocol revision and the session is refused.
const helloMagic = "cprepl/2"

// helloLen is the hello payload length: magic, shard count, segment,
// lastSeq.
const helloLen = len(helloMagic) + 16

// MaxFrame bounds a frame payload. Snapshot frames carry a full store
// rendering, so the bound is generous; everything else is tiny.
const MaxFrame = 256 << 20

// frameHeaderLen is the fixed frame prefix: type byte + u32 length.
const frameHeaderLen = 5

// segTagLen is the segment tag that opens the payload of every frame
// of a segment stream: all types but hello and refuse.
const segTagLen = 4

// tagged reports whether frames of type typ carry the segment tag.
func tagged(typ byte) bool { return typ != frameHello && typ != frameRefuse }

// writeFrame sends one frame whose payload is parts, concatenated in
// the frame's one buffer. For a tagged type the segment tag is written
// first; seg is ignored for hello and refuse.
func writeFrame(w io.Writer, typ byte, seg uint32, parts ...[]byte) error {
	n := 0
	if tagged(typ) {
		n = segTagLen
	}
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxFrame {
		return fmt.Errorf("replication: %c frame payload %d bytes exceeds MaxFrame", typ, n)
	}
	buf := make([]byte, frameHeaderLen, frameHeaderLen+n)
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:], uint32(n))
	if tagged(typ) {
		buf = binary.BigEndian.AppendUint32(buf, seg)
	}
	for _, p := range parts {
		buf = append(buf, p...)
	}
	// One Write call per frame keeps frames intact under concurrent
	// writers guarded by the caller's mutex.
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("replication: writing %c frame: %w", typ, err)
	}
	return nil
}

// readFrame reads one frame and, for a tagged type, splits the segment
// tag off the payload (seg is 0 for hello and refuse). A declared
// length beyond MaxFrame is refused before any payload allocation; a
// truncated payload surfaces as io.ErrUnexpectedEOF. The payload is
// read through a LimitReader so a length that lies about the stream
// cannot force an oversized allocation.
func readFrame(r io.Reader) (typ byte, seg uint32, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, nil, fmt.Errorf("replication: truncated frame header: %w", err)
		}
		return 0, 0, nil, err
	}
	typ = hdr[0]
	switch typ {
	case frameHello, frameSnapshot, frameBatch, frameHeartbeat, frameAck, frameRefuse:
	default:
		return 0, 0, nil, fmt.Errorf("replication: unknown frame type 0x%02x", typ)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("replication: %c frame declares %d bytes, limit %d", typ, n, MaxFrame)
	}
	payload, err = io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("replication: reading %c frame payload: %w", typ, err)
	}
	if uint32(len(payload)) != n {
		return 0, 0, nil, fmt.Errorf("replication: %c frame truncated: %d of %d bytes: %w",
			typ, len(payload), n, io.ErrUnexpectedEOF)
	}
	if !tagged(typ) {
		return typ, 0, payload, nil
	}
	if len(payload) < segTagLen {
		return 0, 0, nil, fmt.Errorf("replication: %c frame payload is %d bytes, want segment tag plus body", typ, len(payload))
	}
	return typ, binary.BigEndian.Uint32(payload), payload[segTagLen:], nil
}

// hello is a decoded hello: the follower's shard count, the segment
// the session carries, and the follower's lastSeq for that segment.
type hello struct {
	shards  uint32
	segment uint32
	lastSeq uint64
}

// encodeHello builds the hello payload: magic + follower shard count +
// the segment this connection carries + the follower's lastSeq for
// that segment.
func encodeHello(shards, segment uint32, lastSeq uint64) []byte {
	p := make([]byte, helloLen)
	copy(p, helloMagic)
	binary.BigEndian.PutUint32(p[len(helloMagic):], shards)
	binary.BigEndian.PutUint32(p[len(helloMagic)+4:], segment)
	binary.BigEndian.PutUint64(p[len(helloMagic)+8:], lastSeq)
	return p
}

// decodeHello validates the magic and the hello's internal consistency
// (the segment must fall inside its own shard count). Topology
// compatibility with the local store is the leader's call, not the
// codec's. An error's text is the reason the leader's refusal carries.
func decodeHello(p []byte) (hello, error) {
	if len(p) != helloLen || string(p[:len(helloMagic)]) != helloMagic {
		return hello{}, fmt.Errorf("unrecognized hello (%d bytes): this leader speaks only %s", len(p), helloMagic)
	}
	h := hello{
		shards:  binary.BigEndian.Uint32(p[len(helloMagic):]),
		segment: binary.BigEndian.Uint32(p[len(helloMagic)+4:]),
		lastSeq: binary.BigEndian.Uint64(p[len(helloMagic)+8:]),
	}
	if h.shards == 0 {
		return hello{}, fmt.Errorf("hello declares zero shards")
	}
	if h.segment >= h.shards {
		return hello{}, fmt.Errorf("hello names segment %d of %d shards", h.segment, h.shards)
	}
	return h, nil
}

// decodeRefusal extracts the human-readable reason from an 'E' frame.
// The reason is bounded so a hostile peer cannot stuff a log line.
func decodeRefusal(p []byte) string {
	const maxReason = 512
	if len(p) > maxReason {
		p = p[:maxReason]
	}
	return string(p)
}

// writeBatchFrame sends one batch frame, whose payload is firstSeq +
// commitSeq + the batch bytes.
func writeBatchFrame(w io.Writer, seg uint32, firstSeq, commitSeq uint64, data []byte) error {
	return writeFrame(w, frameBatch, seg, encodeSeq(firstSeq), encodeSeq(commitSeq), data)
}

// decodeBatch splits the batch payload. The sequence header must be
// internally consistent — a batch spans at least one record plus its
// commit marker — but the record bytes themselves are validated by the
// journal's strict batch parser at apply time.
func decodeBatch(p []byte) (firstSeq, commitSeq uint64, data []byte, err error) {
	if len(p) < 17 {
		return 0, 0, nil, fmt.Errorf("replication: batch payload is %d bytes, want header plus records", len(p))
	}
	firstSeq = binary.BigEndian.Uint64(p)
	commitSeq = binary.BigEndian.Uint64(p[8:])
	if commitSeq <= firstSeq {
		return 0, 0, nil, fmt.Errorf("replication: batch header spans [%d,%d]", firstSeq, commitSeq)
	}
	return firstSeq, commitSeq, p[16:], nil
}

// writeSnapshotFrame sends one snapshot frame, whose payload is
// lastSeq + the snapshot rendering.
func writeSnapshotFrame(w io.Writer, seg uint32, lastSeq uint64, data []byte) error {
	return writeFrame(w, frameSnapshot, seg, encodeSeq(lastSeq), data)
}

// decodeSnapshot splits the snapshot payload.
func decodeSnapshot(p []byte) (lastSeq uint64, data []byte, err error) {
	if len(p) < 9 {
		return 0, nil, fmt.Errorf("replication: snapshot payload is %d bytes, want header plus rendering", len(p))
	}
	return binary.BigEndian.Uint64(p), p[8:], nil
}

// encodeSeq builds one big-endian sequence number: the whole payload of
// heartbeat and ack, the head of snapshot and batch payloads.
func encodeSeq(seq uint64) []byte {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, seq)
	return p
}

// decodeSeq extracts the heartbeat/ack sequence number.
func decodeSeq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("replication: sequence payload is %d bytes, want 8", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}
