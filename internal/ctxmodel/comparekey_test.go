package ctxmodel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: CompareKey orders states exactly as strings.Compare orders
// their Key() renderings, including values that are prefixes of one
// another, contain bytes below or above the separator, contain the
// separator itself, or are empty.
func TestQuickCompareKeyMatchesKeyOrder(t *testing.T) {
	alphabet := []string{"", "a", "ab", "b", "\x01", "a\x01", "a\x1f", "a\x1fb", "\x1f", "\x7f", "é", "\xff"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		pick := func() State {
			s := make(State, n)
			for i := range s {
				s[i] = alphabet[r.Intn(len(alphabet))]
			}
			return s
		}
		for i := 0; i < 50; i++ {
			a, b := pick(), pick()
			if r.Intn(4) == 0 {
				copy(b, a[:r.Intn(n)])
			}
			if got, want := a.CompareKey(b), strings.Compare(a.Key(), b.Key()); got != want {
				t.Errorf("%q.CompareKey(%q) = %d, keys compare %d", a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
