package journal

// The journal scan as it was before it became copy-free, kept verbatim
// under reference names: it copied every line into a string of its
// own, split it with strings.SplitN, converted the payload back to
// bytes for its CRC, and buffered each batch before copying it out.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"testing"

	"contextpref/internal/faultfs"
)

// referenceParseRecord reads one record line (without its trailing newline).
func referenceParseRecord(line string) (Record, uint64, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return Record{}, 0, fmt.Errorf("journal: %d fields, want 5", len(parts))
	}
	if len(parts[0]) != 1 || !(Op(parts[0][0]).valid() || Op(parts[0][0]) == opCommit) {
		return Record{}, 0, fmt.Errorf("journal: invalid op %q", parts[0])
	}
	seq, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad sequence number %q", parts[1])
	}
	user, err := strconv.Unquote(parts[2])
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad user field %q", parts[2])
	}
	sum, err := strconv.ParseUint(parts[3], 16, 32)
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad checksum field %q", parts[3])
	}
	if got := crc32.ChecksumIEEE([]byte(parts[4])); got != uint32(sum) {
		return Record{}, 0, fmt.Errorf("journal: checksum mismatch (%08x != %08x)", got, sum)
	}
	return Record{Op: Op(parts[0][0]), User: user, Line: parts[4]}, seq, nil
}

// referenceReadJournal tolerantly parses the journal: it stops at the first
// invalid, unterminated, or mis-framed line and reports the byte length
// of the committed prefix so the caller can truncate the tail away. In
// the commit-framed format, records are buffered until their batch's
// commit marker is seen — an uncommitted batch is dropped entirely.
func referenceReadJournal(fsys faultfs.FS, path string) (journalScan, error) {
	var scan journalScan
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return scan, nil
	}
	if err != nil {
		return scan, fmt.Errorf("journal: reading journal: %w", err)
	}
	scan.legacy = bytes.HasPrefix(data, []byte(legacyHeader+"\n")) ||
		string(data) == legacyHeader // torn header newline: still v1
	var pending []Record
	var pendingSeqs []uint64
	off := 0
scanLoop:
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated final line: torn write
		}
		end := off + nl + 1
		line := strings.TrimRight(string(data[off:off+nl]), "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			// Comments between batches (the header, probe lines) are
			// committed ground; mid-batch they cannot occur, and
			// advancing there would resurrect a torn batch.
			if len(pending) == 0 {
				scan.validLen = int64(end)
			}
			off = end
			continue
		}
		r, seq, perr := referenceParseRecord(line)
		if perr != nil {
			break // corrupt record: keep only the prefix before it
		}
		switch {
		case scan.legacy:
			if r.Op == opCommit {
				// v1 journals have no commit markers; one is corruption.
				break scanLoop
			}
			scan.recs = append(scan.recs, r)
			scan.seqs = append(scan.seqs, seq)
			if seq > scan.maxSeq {
				scan.maxSeq = seq
			}
			scan.validLen = int64(end)
		case r.Op == opCommit:
			count, cerr := strconv.Atoi(r.Line)
			if cerr != nil || count != len(pending) || count == 0 {
				break scanLoop // mis-framed commit: corruption
			}
			scan.recs = append(scan.recs, pending...)
			scan.seqs = append(scan.seqs, pendingSeqs...)
			pending, pendingSeqs = pending[:0], pendingSeqs[:0]
			if seq > scan.maxSeq {
				scan.maxSeq = seq
			}
			scan.validLen = int64(end)
		default:
			pending = append(pending, r)
			pendingSeqs = append(pendingSeqs, seq)
		}
		off = end
	}
	return scan, nil
}

// readJournalWith runs the journal scan with a given read buffer size and
// collects what it hands over, as the reference returns it.
func readJournalWith(fsys faultfs.FS, path string, bufSize int) (journalScan, error) {
	var recs []Record
	var seqs []uint64
	scan, err := scanJournal(fsys, path, bufSize, func(batch []Record, batchSeqs []uint64) error {
		recs = append(recs, batch...)
		seqs = append(seqs, batchSeqs...)
		return nil
	})
	if !scan.legacy {
		scan.recs, scan.seqs = recs, seqs
	}
	return scan, err
}

// readJournal is readJournalWith at the buffer size recovery reads
// with.
func readJournal(fsys faultfs.FS, path string) (journalScan, error) {
	return readJournalWith(fsys, path, readBufSize)
}

// scanBufSizes are the read buffer sizes the scan is checked with
// besides its own: every one of them is shorter than some record line,
// so lines span reads and the longest ones take the side buffer.
var scanBufSizes = []int{1, 2, 7, 16, 61}

// appendedSegment is a real journal segment: three batches written
// with Append, with a user name that needs quoting, a payload holding a
// tab, and a remove and a drop among them.
func appendedSegment(tb testing.TB) []byte {
	tb.Helper()
	fsys := faultfs.NewMemFS()
	j, _, err := OpenFS(fsys, "/s")
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range [][]Record{
		{{Op: OpUser, User: "alice"}, {Op: OpAdd, User: "alice", Line: "[] => type = park : 0.4"}},
		{{Op: OpAdd, User: "bob \"b\"", Line: "[time = t01] => type = museum :\t0.8"}},
		{{Op: OpRemove, User: "alice", Line: "[] => type = park : 0.4"}, {Op: OpDrop, User: "bob \"b\""}, {Op: OpUser, User: "carol"}},
	} {
		if err := j.Append(batch...); err != nil {
			tb.Fatal(err)
		}
	}
	j.Close()
	data, err := fsys.ReadFile("/s/" + journalFile)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rawLine renders one record line as marshal does, but with any
// checksum and field list, so a test can write what Append never would.
func rawLine(fields ...string) string { return strings.Join(fields, "\t") + "\n" }

// crcOf is the checksum field marshal writes for a payload.
func crcOf(payload string) string { return fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(payload))) }

// FuzzJournalScanMatchesReference pins readJournal to the reference
// scan: for any journal bytes both must commit the same records with
// the same sequence numbers, the same highest sequence number, the same
// committed length and the same legacy flag. Every CRC, framing,
// torn-tail and v1 rule is therefore unchanged.
func FuzzJournalScanMatchesReference(f *testing.F) {
	// FuzzJournalRecovery's seeds.
	f.Add([]byte(fileHeader + "\n"))
	f.Add([]byte(legacyHeader + "\nU\t1\t\"alice\"\t0\t\n"))
	f.Add([]byte(fileHeader + "\nA\t1\t\"u\"\tdeadbeef\t[] => type = park : 0.4\nC\t1\t0\t1\n"))
	f.Add([]byte("garbage that is not a journal at all"))
	f.Add([]byte{})
	f.Add([]byte(fileHeader + "\nC\t1\t\"\"\t0\t5\n"))

	// A real segment, whole and cut at every byte: every prefix ends
	// mid-line, at a line end inside a batch, or at a commit.
	seg := appendedSegment(f)
	for n := len(seg); n >= 0; n-- {
		f.Add(seg[:n])
	}
	// CRLF line ends.
	f.Add(bytes.ReplaceAll(seg, []byte("\n"), []byte("\r\n")))

	user := rawLine("U", "1", `"alice"`, crcOf(""), "")
	add := rawLine("A", "2", `"alice"`, crcOf("[] => type = park : 0.4"), "[] => type = park : 0.4")
	commit := rawLine("C", "3", `""`, crcOf("2"), "2")
	commit1 := rawLine("C", "2", `""`, crcOf("1"), "1")
	next := rawLine("U", "4", `"bob"`, crcOf(""), "") + rawLine("C", "5", `""`, crcOf("1"), "1")
	for _, s := range []string{
		// A comment and a blank line between batches, a probe at the tail.
		fileHeader + "\n" + user + add + commit + "# probe\n\n" + next + probeLine,
		// A comment inside a batch, committed and torn.
		fileHeader + "\n" + user + "# probe\n" + add + commit + next,
		fileHeader + "\n" + user + "# probe\n" + add,
		fileHeader + "\n" + user + add,
		// A bad CRC in a committed batch, then a valid batch.
		fileHeader + "\n" + user + rawLine("A", "2", `"alice"`, "deadbeef", "[] => type = park : 0.4") + commit + next,
		// A 4-field line whose missing payload would check as empty.
		fileHeader + "\n" + rawLine("U", "1", `"alice"`, crcOf("")) + commit1 + next,
		// Mis-framed commits: a wrong count, a non-number and an empty batch.
		fileHeader + "\n" + user + add + rawLine("C", "3", `""`, crcOf("3"), "3") + next,
		fileHeader + "\n" + user + add + rawLine("C", "3", `""`, crcOf("two"), "two") + next,
		fileHeader + "\n" + rawLine("C", "1", `""`, crcOf("0"), "0") + next,
		// Bad fields: op, sequence number, user quoting, checksum text.
		fileHeader + "\n" + rawLine("X", "1", `"alice"`, crcOf(""), "") + commit1,
		fileHeader + "\n" + rawLine("U", "-1", `"alice"`, crcOf(""), "") + commit1,
		fileHeader + "\n" + rawLine("U", "1", `alice`, crcOf(""), "") + commit1,
		fileHeader + "\n" + rawLine("U", "1", `"alice"`, "xyz", "") + commit1,
		// Legacy v1 journals: per-record durability, a commit is corruption.
		legacyHeader + "\n" + user + add + "# c\n" + next,
		legacyHeader + "\n" + user + add + rawLine("U", "9", `"bob"`, crcOf(""), ""),
		legacyHeader,
		legacyHeader + "\r\n" + user,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := faultfs.NewMemFS()
		w, err := fsys.OpenFile("/"+journalFile, os.O_CREATE|os.O_WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		w.Close()
		got, err := readJournal(fsys, "/"+journalFile)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceReadJournal(fsys, "/"+journalFile)
		if err != nil {
			t.Fatal(err)
		}
		if got.maxSeq != want.maxSeq || got.validLen != want.validLen || got.legacy != want.legacy {
			t.Fatalf("maxSeq, validLen, legacy = %d, %d, %v; reference %d, %d, %v",
				got.maxSeq, got.validLen, got.legacy, want.maxSeq, want.validLen, want.legacy)
		}
		if len(got.recs) != len(want.recs) || len(got.seqs) != len(want.seqs) {
			t.Fatalf("%d records, %d seqs; reference %d, %d", len(got.recs), len(got.seqs), len(want.recs), len(want.seqs))
		}
		for i := range want.recs {
			if got.recs[i] != want.recs[i] || got.seqs[i] != want.seqs[i] {
				t.Fatalf("record %d = %+v seq %d; reference %+v seq %d", i, got.recs[i], got.seqs[i], want.recs[i], want.seqs[i])
			}
		}
		for _, size := range scanBufSizes {
			got, err := readJournalWith(fsys, "/"+journalFile, size)
			if err != nil {
				t.Fatal(err)
			}
			if got.maxSeq != want.maxSeq || got.validLen != want.validLen || got.legacy != want.legacy {
				t.Fatalf("buffer %d: maxSeq, validLen, legacy = %d, %d, %v; reference %d, %d, %v",
					size, got.maxSeq, got.validLen, got.legacy, want.maxSeq, want.validLen, want.legacy)
			}
			if len(got.recs) != len(want.recs) || len(got.seqs) != len(want.seqs) {
				t.Fatalf("buffer %d: %d records, %d seqs; reference %d, %d", size, len(got.recs), len(got.seqs), len(want.recs), len(want.seqs))
			}
			for i := range want.recs {
				if got.recs[i] != want.recs[i] || got.seqs[i] != want.seqs[i] {
					t.Fatalf("buffer %d: record %d = %+v seq %d; reference %+v seq %d",
						size, i, got.recs[i], got.seqs[i], want.recs[i], want.seqs[i])
				}
			}
		}
	})
}

// referenceParseSnapshot is parseSnapshot as it was before the snapshot
// went through the streaming scan, with referenceParseRecord standing
// in for the record parser of its day, which FuzzJournalScanMatchesReference
// pinned to it.
func referenceParseSnapshot(data []byte) (recs []Record, lastSeq uint64, hasMeta bool, err error) {
	text := string(data)
	recs = make([]Record, 0, strings.Count(text, "\n")+1)
	for ln, off := 1, 0; off <= len(text); ln++ {
		end := strings.IndexByte(text[off:], '\n')
		if end < 0 {
			end = len(text) - off
		}
		// Only trim the line ending: a record with an empty payload
		// legitimately ends in a tab.
		line := strings.TrimRight(text[off:off+end], "\r")
		off += end + 1
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, metaPrefix); ok {
			lastSeq, err = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, 0, false, fmt.Errorf("journal: snapshot line %d: bad lastseq: %w", ln, err)
			}
			hasMeta = true
			continue
		}
		r, _, err := referenceParseRecord(line)
		if err != nil {
			return nil, 0, false, fmt.Errorf("journal: snapshot line %d: %w", ln, err)
		}
		if r.Op == opCommit {
			return nil, 0, false, fmt.Errorf("journal: snapshot line %d: commit marker in snapshot", ln)
		}
		recs = append(recs, r)
	}
	return recs, lastSeq, hasMeta, nil
}

// FuzzSnapshotScanMatchesReference pins the streaming snapshot scan, at
// recovery's read buffer size and at every size of scanBufSizes, to the
// snapshot parser it replaced: for any bytes, both must accept or both
// refuse, and on acceptance agree on the records, the horizon and
// whether a "!lastseq" line was present.
func FuzzSnapshotScanMatchesReference(f *testing.F) {
	snap := func(lines ...string) []byte {
		return []byte(fileHeader + " snapshot\n" + strings.Join(lines, ""))
	}
	user := rawLine("U", "7", `"alice"`, crcOf(""), "")
	add := rawLine("A", "7", `"alice"`, crcOf("[] => type = park : 0.4"), "[] => type = park : 0.4")
	quoted := rawLine("A", "7", `"bob \"b\""`, crcOf("[time = t01] => type = museum :\t0.8"), "[time = t01] => type = museum :\t0.8")
	for _, s := range [][]byte{
		{},
		snap(),
		snap(metaPrefix+"7\n", user, add, quoted),
		snap(user, metaPrefix+" 9 \n", add),
		snap(metaPrefix+"7\n", user, add)[:40],
		snap(metaPrefix+"7\r\n", "\n", "# comment\n", user, add),
		snap(metaPrefix+"x\n", user),
		snap(metaPrefix+"7\n", rawLine("C", "7", `""`, crcOf("1"), "1")),
		snap(metaPrefix+"7\n", rawLine("A", "7", `"alice"`, "deadbeef", "[] => type = park : 0.4")),
		snap(metaPrefix+"7\n", rawLine("U", "7", `"alice"`, crcOf(""))),
		snap(metaPrefix+"7\n", user, strings.TrimSuffix(add, "\n")),
		[]byte(strings.Repeat(add, 300)),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantSeq, wantMeta, wantErr := referenceParseSnapshot(data)
		for _, size := range append([]int{readBufSize}, scanBufSizes...) {
			var got []Record
			gotSeq, gotMeta, gotErr := scanSnapshot(bytes.NewReader(data), size, func(chunk []Record) error {
				got = append(got, chunk...)
				return nil
			})
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("buffer %d: error %v; reference %v", size, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if gotSeq != wantSeq || gotMeta != wantMeta {
				t.Fatalf("buffer %d: lastSeq, hasMeta = %d, %v; reference %d, %v", size, gotSeq, gotMeta, wantSeq, wantMeta)
			}
			if len(got) != len(want) {
				t.Fatalf("buffer %d: %d records; reference %d", size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("buffer %d: record %d = %+v; reference %+v", size, i, got[i], want[i])
				}
			}
		}
	})
}
