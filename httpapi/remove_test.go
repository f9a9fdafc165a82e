package httpapi

// DELETE /preferences validates its whole body before it removes
// anything or creates its user, and POST /preferences refuses a NaN interest score. Both
// are checked on a journaled one-shard directory, in memory and after
// replaying the journal.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

// journaledServer serves a one-shard directory journaled on fs under
// /store.
func journaledServer(t *testing.T, fs faultfs.FS) (*httptest.Server, *journal.Journal) {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	j, recs, err := journal.OpenFS(fs, "/store")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.ReplayShard(0, recs); err != nil {
		t.Fatal(err)
	}
	dir.SetShardPersister(0, contextpref.NewJournalPersister(j))
	srv, err := NewMultiUser(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, j
}

// replayedExport reopens the journal on fs and returns the default
// user's profile as a fresh directory replays it, with the records.
func replayedExport(t *testing.T, fs faultfs.FS) (string, []journal.Record) {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	j, recs, err := journal.OpenFS(fs, "/store")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.ReplayShard(0, recs); err != nil {
		t.Fatal(err)
	}
	sys, ok := dir.Lookup("default")
	if !ok {
		t.Fatal("replay lost the default user")
	}
	text, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	return text, recs
}

func TestRemoveValidatesEveryLineFirst(t *testing.T) {
	const a = `[accompanying_people = friends] => type = "brewery" : 0.9`
	const b = `[time = t01] => type = "museum" : 0.8`
	fs := faultfs.NewMemFS()
	ts, j := journaledServer(t, fs)
	if resp, body := post(t, ts.URL+"/preferences", "text/plain", a+"\n"+b); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	_, want := get(t, ts.URL+"/preferences")

	for name, body := range map[string]string{
		"malformed line":  a + "\ngarbage",
		"unknown value":   a + "\n[time = t99] => type = \"museum\" : 0.8",
		"unknown param":   a + "\n# comment\n[weather = hot] => type = \"museum\" : 0.8",
		"bad score first": "[] => type = park : 2\n" + a,
	} {
		resp, got := del(t, ts.URL+"/preferences", body)
		if e := decodeErr(t, got); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("%s: DELETE = %d %q, want 400 bad_request", name, resp.StatusCode, e.Code)
		}
		if _, now := get(t, ts.URL+"/preferences"); now != want {
			t.Errorf("%s: a rejected DELETE changed the profile:\n%s\nwant\n%s", name, now, want)
		}
	}
	// A rejected DELETE that is a user's first access creates no user:
	// nothing in memory and no creation record in the journal.
	resp, got := del(t, ts.URL+"/preferences?user=fresh", a+"\ngarbage")
	if e := decodeErr(t, got); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("first-access DELETE = %d %q, want 400 bad_request", resp.StatusCode, e.Code)
	}
	if _, users := get(t, ts.URL+"/users"); strings.Contains(users, "fresh") {
		t.Errorf("a rejected first-access DELETE created its user: /users = %s", users)
	}
	// A valid body still removes line by line.
	resp, got = del(t, ts.URL+"/preferences", a)
	if resp.StatusCode != http.StatusOK || !strings.Contains(got, `"removed":1`) {
		t.Fatalf("valid DELETE = %d: %s", resp.StatusCode, got)
	}

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	text, recs := replayedExport(t, fs)
	if text != b+"\n" {
		t.Errorf("replayed profile = %q, want only %q", text, b)
	}
	var removes int
	for _, r := range recs {
		if r.Op == journal.OpRemove {
			removes++
		}
		if r.User == "fresh" {
			t.Errorf("journal holds a record of the rejected first-access DELETE: %+v", r)
		}
	}
	if removes != 1 {
		t.Errorf("journal holds %d remove records, want the 1 acknowledged: %+v", removes, recs)
	}
}

func TestNaNScoreRejected(t *testing.T) {
	fs := faultfs.NewMemFS()
	ts, _ := journaledServer(t, fs)
	for _, line := range []string{
		`[time = morning] => type = "museum" : NaN`,
		`[time = morning] => type = "museum" : -nan`,
		`[time = morning] => type = "museum" : +Inf`,
	} {
		resp, body := post(t, ts.URL+"/preferences", "text/plain", line)
		if e := decodeErr(t, body); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("POST %q = %d %q, want 400 bad_request (%s)", line, resp.StatusCode, e.Code, e.Error)
		}
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(body, `"Preferences":0`) {
		t.Errorf("stats after rejected scores = %s", body)
	}
	text, recs := replayedExport(t, fs)
	if text != "" || len(recs) != 1 || recs[0].Op != journal.OpUser {
		t.Errorf("replay after rejected scores: profile %q, records %+v; want only the user's creation", text, recs)
	}
}
