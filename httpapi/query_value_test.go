package httpapi

import (
	"net/url"
	"testing"
)

// FuzzQueryValueMatchesParseQuery checks queryValue against the
// url.Values lookup it replaces: for every raw query and key, the first
// value url.ParseQuery keeps for the key.
func FuzzQueryValueMatchesParseQuery(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"", "user"},
		{"user=alice", "user"},
		{"state=friends,t03,ath_r01&user=bob", "state"},
		{"user=&user=carol", "user"},
		{"user=a;b&user=dave", "user"},
		{"user=%zz&user=erin", "user"},
		{"us%65r=fr%61nk&user=gina", "user"},
		{"user=h+i%20j", "user"},
		{"&&user&user=k", "user"},
		{"%zz=1&user=l", "user"},
		{"user", "user"},
		{"a=1&b=2", "c"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		values, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), values.Get(key); got != want {
			t.Errorf("queryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}
