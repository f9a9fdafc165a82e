package journal

// This file is the journal's one reader: a line splitter that reads a
// file through a fixed-size buffer, and a record parser that works on
// the bytes read. The tolerant journal scan and the strict snapshot
// scan (journal.go) and the replication parsers (replicate.go) are
// built from them, and neither scan ever holds a whole file. Each
// record's user and payload are copied, as they are parsed, into the
// text of the batch the record belongs to, and when the batch commits
// that text becomes one string, of which the batch's records' strings
// are substrings. So a record kept past the scan keeps its batch's text
// alive and nothing more.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"unicode/utf8"
)

// readBufSize is the buffer a scan reads its file through. A line
// longer than it grows a side buffer of its own.
const readBufSize = 64 << 10

// snapshotChunk is the amount of record text the snapshot scan gathers
// before it hands the records over: a snapshot has no batches, so it is
// delivered in chunks of about this size.
const snapshotChunk = 16 << 10

// BatchFunc receives the records of one committed batch, in order. The
// slice is reused once the call returns; the records' strings are not,
// and are substrings of one string per batch.
type BatchFunc func(recs []Record) error

// lineReader splits a stream into lines, reading it through a buffer of
// fixed size.
type lineReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // buf[lo:hi] is read and not yet returned
	// long holds the start of a line that did not fit in buf; it is
	// empty when no such line is pending.
	long []byte
	err  error // the read error that ended the stream, io.EOF at its end
}

func newLineReader(r io.Reader, size int) *lineReader {
	return &lineReader{r: r, buf: make([]byte, size)}
}

// next returns the next line without its '\n', and whether a '\n' ended
// it: at the end of the stream, the rest of the stream after the last
// '\n' comes back unterminated, unless it is empty. ok is false once
// nothing is left, and err is a read error other than io.EOF. The line
// is valid until the next call.
func (lr *lineReader) next() (line []byte, terminated, ok bool, err error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.lo:lr.hi], '\n'); i >= 0 {
			line = lr.buf[lr.lo : lr.lo+i]
			lr.lo += i + 1
			if len(lr.long) > 0 {
				line = append(lr.long, line...)
				lr.long = line[:0]
			}
			return line, true, true, nil
		}
		if lr.err != nil {
			line = lr.buf[lr.lo:lr.hi]
			lr.lo = lr.hi
			if len(lr.long) > 0 {
				line = append(lr.long, line...)
				lr.long = line[:0]
			}
			if lr.err != io.EOF {
				return nil, false, false, lr.err
			}
			return line, false, len(line) > 0, nil
		}
		if lr.lo == 0 && lr.hi == len(lr.buf) {
			// The buffer holds one unfinished line: set it aside.
			lr.long = append(lr.long, lr.buf...)
			lr.hi = 0
		} else if lr.lo > 0 {
			lr.hi = copy(lr.buf, lr.buf[lr.lo:lr.hi])
			lr.lo = 0
		}
		n, err := lr.r.Read(lr.buf[lr.hi:])
		lr.hi += n
		if err != nil {
			lr.err = err
		}
	}
}

// rawRecord is one parsed record line. user and payload alias the line
// when the user needed no unescaping.
type rawRecord struct {
	op      Op
	seq     uint64
	user    []byte
	payload []byte
}

// parseRecord reads one record line (without its line ending) from the
// bytes read: five tab-separated fields, the last of which may hold
// tabs, each checked as strconv would parse its text, and the payload's
// checksum computed over the line's own bytes.
func parseRecord(line []byte) (rawRecord, error) {
	var f [5][]byte
	n, rest := 0, line
	for ; n < len(f)-1; n++ {
		tab := bytes.IndexByte(rest, '\t')
		if tab < 0 {
			break
		}
		f[n], rest = rest[:tab], rest[tab+1:]
	}
	f[n] = rest
	if n++; n != len(f) {
		return rawRecord{}, fmt.Errorf("journal: %d fields, want 5", n)
	}
	if len(f[0]) != 1 || !(Op(f[0][0]).valid() || Op(f[0][0]) == opCommit) {
		return rawRecord{}, fmt.Errorf("journal: invalid op %q", f[0])
	}
	// strconv does not keep its argument, so a short field converts on
	// the stack.
	seq, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return rawRecord{}, fmt.Errorf("journal: bad sequence number %q", f[1])
	}
	user, ok := unquoteUser(f[2])
	if !ok {
		return rawRecord{}, fmt.Errorf("journal: bad user field %q", f[2])
	}
	sum, err := strconv.ParseUint(string(f[3]), 16, 32)
	if err != nil {
		return rawRecord{}, fmt.Errorf("journal: bad checksum field %q", f[3])
	}
	if got := crc32.ChecksumIEEE(f[4]); got != uint32(sum) {
		return rawRecord{}, fmt.Errorf("journal: checksum mismatch (%08x != %08x)", got, sum)
	}
	return rawRecord{op: Op(f[0][0]), seq: seq, user: user, payload: f[4]}, nil
}

// unquoteUser is strconv.Unquote over a field's bytes. A quoted name
// without escapes, as marshal writes every plain name, is the field's
// own bytes less the quotes; anything else goes through strconv.
func unquoteUser(q []byte) ([]byte, bool) {
	if len(q) >= 2 && q[0] == '"' && bytes.IndexByte(q[1:], '"') == len(q)-2 {
		in := q[1 : len(q)-1]
		if bytes.IndexByte(in, '\\') < 0 && bytes.IndexByte(in, '\n') < 0 && utf8.Valid(in) {
			return in, true
		}
	}
	u, err := strconv.Unquote(string(q))
	if err != nil {
		return nil, false
	}
	return []byte(u), true
}

// commitCount is the record count a commit marker's payload declares,
// as strconv.Atoi reads it.
func commitCount(payload []byte) (int, bool) {
	n, err := strconv.Atoi(string(payload))
	return n, err == nil
}

// batchBuf gathers the records of one batch as they are parsed. Their
// users and payloads are copied into one text buffer, a record naming
// the same user as the one before it sharing that copy, and flush turns
// the buffer into the batch's one string. Every buffer is reused from
// batch to batch.
type batchBuf struct {
	text  []byte
	spans []recSpan
	recs  []Record
	seqs  []uint64
}

// recSpan locates one gathered record's strings in the batch text: the
// user is text[user:userEnd] and the payload text[line:end].
type recSpan struct {
	op            Op
	seq           uint64
	user, userEnd int
	line, end     int
}

// add copies one parsed record into the batch.
func (b *batchBuf) add(r rawRecord) {
	sp := recSpan{op: r.op, seq: r.seq}
	if n := len(b.spans); n > 0 && bytes.Equal(b.text[b.spans[n-1].user:b.spans[n-1].userEnd], r.user) {
		sp.user, sp.userEnd = b.spans[n-1].user, b.spans[n-1].userEnd
	} else {
		sp.user = len(b.text)
		b.text = append(b.text, r.user...)
		sp.userEnd = len(b.text)
	}
	sp.line = len(b.text)
	b.text = append(b.text, r.payload...)
	sp.end = len(b.text)
	b.spans = append(b.spans, sp)
}

// len returns the number of records gathered.
func (b *batchBuf) len() int { return len(b.spans) }

// flush returns the gathered records and their sequence numbers, valid
// until the next flush, and empties the batch.
func (b *batchBuf) flush() ([]Record, []uint64) {
	text := string(b.text)
	b.recs, b.seqs = b.recs[:0], b.seqs[:0]
	for _, sp := range b.spans {
		b.recs = append(b.recs, Record{Op: sp.op, User: text[sp.user:sp.userEnd], Line: text[sp.line:sp.end]})
		b.seqs = append(b.seqs, sp.seq)
	}
	b.text, b.spans = b.text[:0], b.spans[:0]
	return b.recs, b.seqs
}

// isBlank reports whether a line, its line ending trimmed, is one that
// every scan skips: blank, or a '#' comment.
func isBlank(line []byte) bool {
	return len(bytes.TrimSpace(line)) == 0 || line[0] == '#'
}
