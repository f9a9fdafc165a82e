package profiletree

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
)

var updateLayout = flag.Bool("update-layout", false, "rewrite testdata/layout.golden")

// layoutGoldenFile pins the tree's observable shape along a scripted
// history, through the public API alone: its counts, Paths() in tree
// order, Encode(), and the accesses and answers of every search over
// fixed states. Paths() and SearchCover list states in the order the
// tree holds its cells, and the access counts of SearchExact,
// SearchCoverBest and ResolveCtx depend on it, so a layout that stores
// the same contents in another order fails here even where the
// sequential-scan references, which have no cell order, agree.
const layoutGoldenFile = "testdata/layout.golden"

// layoutProfiles are the eight 522-preference real-profile fixtures the
// root package's load benchmarks upload (zipf a = 1, 20% upper-level
// values, seeds 2007 to 2014).
func layoutProfiles(t *testing.T, env *ctxmodel.Environment) [][]preference.Preference {
	t.Helper()
	out := make([][]preference.Preference, 8)
	for i := range out {
		ps, err := dataset.ProfileSpec{Env: env, NumPrefs: dataset.RealPrefCount, Seed: 2007 + int64(i),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ps
	}
	return out
}

// layoutStates are 200 fixed states: a third are states of the
// fixture's descriptors (exact hits once stored), a third detailed
// states drawn uniformly, and a third drawn from each parameter's
// extended domain, so some are covered, some exact and some uncovered.
func layoutStates(t *testing.T, env *ctxmodel.Environment, profiles [][]preference.Preference) []ctxmodel.State {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	n := env.NumParams()
	states := make([]ctxmodel.State, 0, 200)
	for i := 0; len(states) < 200; i++ {
		s := make(ctxmodel.State, n)
		switch i % 3 {
		case 0:
			ps := profiles[i%len(profiles)]
			exp, err := ps[(i*37)%len(ps)].Descriptor.Context(env)
			if err != nil {
				t.Fatal(err)
			}
			s = exp[len(exp)-1]
		case 1:
			for p := range s {
				vs := env.Param(p).Hierarchy().DetailedValues()
				s[p] = vs[rng.Intn(len(vs))]
			}
		default:
			for p := range s {
				vs := env.Param(p).Hierarchy().ExtendedDomain()
				s[p] = vs[rng.Intn(len(vs))]
			}
		}
		states = append(states, s)
	}
	return states
}

// renderCandidate writes one candidate: its state, distance,
// specificity and entries in stored order.
func renderCandidate(b *strings.Builder, c Candidate) {
	fmt.Fprintf(b, "%s d=%s spec=%d [", c.State.Key(), strconv.FormatFloat(c.Distance, 'g', -1, 64), c.Specificity)
	renderLeaves(b, c.Entries)
	b.WriteString("]")
}

func renderLeaves(b *strings.Builder, es []Leaf) {
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s:%s", e.Clause, strconv.FormatFloat(e.Score, 'g', -1, 64))
	}
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// layoutRecord renders the tree after one step: the counts in clear,
// and digests of Paths(), Encode() and each search kind's per-state
// accesses and answers, next to their access totals.
func layoutRecord(t *testing.T, tr *Tree, states []ctxmodel.State) string {
	t.Helper()
	var rec strings.Builder
	fmt.Fprintf(&rec, "  paths=%d internal=%d entries=%d cells=%d prefs=%d bytes=%d keybytes=%d version=%d\n",
		tr.NumPaths(), tr.NumInternalCells(), tr.NumLeafEntries(), tr.NumCells(), tr.NumPreferences(),
		tr.Bytes(), tr.KeyBytes(), tr.Version())

	var paths strings.Builder
	for _, c := range tr.Paths() {
		renderCandidate(&paths, c)
		paths.WriteByte('\n')
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&rec, "  Paths=%s Encode=%s\n", digest(paths.String()), digest(enc))

	var exact, cover, best, resolve strings.Builder
	var exactAcc, coverAcc, bestAcc, resolveAcc, found, cands, bests, hits int
	for _, s := range states {
		es, acc, err := tr.SearchExact(s)
		if err != nil {
			t.Fatal(err)
		}
		exactAcc += acc
		if es != nil {
			found++
		}
		fmt.Fprintf(&exact, "%d [", acc)
		renderLeaves(&exact, es)
		exact.WriteString("]\n")

		cs, acc, err := tr.SearchCover(s, distance.Hierarchy{})
		if err != nil {
			t.Fatal(err)
		}
		coverAcc += acc
		cands += len(cs)
		fmt.Fprintf(&cover, "%d", acc)
		for _, c := range cs {
			cover.WriteByte(' ')
			renderCandidate(&cover, c)
		}
		cover.WriteByte('\n')

		c, acc, ok, err := tr.SearchCoverBest(s, distance.Hierarchy{})
		if err != nil {
			t.Fatal(err)
		}
		bestAcc += acc
		fmt.Fprintf(&best, "%d %v ", acc, ok)
		if ok {
			bests++
			renderCandidate(&best, c)
		}
		best.WriteByte('\n')

		c, acc, ok, err = tr.ResolveCtx(context.Background(), s, distance.Jaccard{})
		if err != nil {
			t.Fatal(err)
		}
		resolveAcc += acc
		fmt.Fprintf(&resolve, "%d %v ", acc, ok)
		if ok {
			hits++
			renderCandidate(&resolve, c)
		}
		resolve.WriteByte('\n')
	}
	fmt.Fprintf(&rec, "  SearchExact accesses=%d found=%d %s\n", exactAcc, found, digest(exact.String()))
	fmt.Fprintf(&rec, "  SearchCover accesses=%d candidates=%d %s\n", coverAcc, cands, digest(cover.String()))
	fmt.Fprintf(&rec, "  SearchCoverBest accesses=%d found=%d %s\n", bestAcc, bests, digest(best.String()))
	fmt.Fprintf(&rec, "  ResolveCtx accesses=%d hits=%d %s\n", resolveAcc, hits, digest(resolve.String()))
	return rec.String()
}

func mustLine(t *testing.T, line string) preference.Preference {
	t.Helper()
	p, err := preference.ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodedUnder returns the tree's Encode() lines whose state has value
// v for the environment's first parameter, as preferences.
func encodedUnder(t *testing.T, tr *Tree, v string) []preference.Preference {
	t.Helper()
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out []preference.Preference
	for _, line := range strings.Split(strings.TrimSuffix(enc, "\n"), "\n") {
		p := mustLine(t, line)
		states, err := p.Descriptor.Context(tr.Env())
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != 1 {
			t.Fatalf("encoded line %q denotes %d states", line, len(states))
		}
		if states[0][0] == v {
			out = append(out, p)
		}
	}
	return out
}

// TestLayoutGolden runs a scripted history over the real environment
// and compares the tree after every step with testdata/layout.golden:
// the eight fixture profiles added in batches (a batch that conflicts
// with the stored profile is refused whole, and its preferences are
// then inserted one by one), single inserts including a repeat of a
// stored triple and a conflict, deletes that prune whole branches and
// deletes that match nothing, and re-inserts of what was deleted.
// Regenerate with -update-layout, on a tree whose layout is known good.
func TestLayoutGolden(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	profiles := layoutProfiles(t, env)
	states := layoutStates(t, env, profiles)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	step := func(name string, err error) {
		fmt.Fprintf(&out, "step %s", name)
		if err != nil {
			fmt.Fprintf(&out, ": %v", err)
		}
		out.WriteByte('\n')
		out.WriteString(layoutRecord(t, tr, states))
	}
	step("empty", nil)

	for i, ps := range profiles {
		for _, half := range [][2]int{{0, len(ps) / 2}, {len(ps) / 2, len(ps)}} {
			batch := ps[half[0]:half[1]]
			err := tr.InsertAll(batch...)
			if err != nil {
				refused := 0
				for _, p := range batch {
					if tr.Insert(p) != nil {
						refused++
					}
				}
				err = fmt.Errorf("%v; one by one, %d of %d refused", err, refused, len(batch))
			}
			step(fmt.Sprintf("profile %d [%d:%d]", i, half[0], half[1]), err)
		}
	}

	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stored := mustLine(t, strings.SplitN(enc, "\n", 2)[0])
	step("repeat of a stored triple", tr.Insert(stored))
	conflicting := stored
	conflicting.Score = 1 - stored.Score/2
	step("conflicting single insert", tr.Insert(conflicting))
	for _, line := range []string{
		`[accompanying_people = colleagues; time = t05; location = ath_r07] => name = "Golden Spoon" : 0.45`,
		`[time = night] => type = brewery : 0.7`,
		`[accompanying_people = alone; time in {t01, t02}] => open_air = true : 0.3`,
	} {
		step("single insert "+line, tr.Insert(mustLine(t, line)))
	}

	for _, line := range []string{
		`[accompanying_people = colleagues; time = t05; location = ath_r07] => name = "Golden Spoon" : 0.9`,
		`[accompanying_people = family] => name = "nowhere" : 0.5`,
		`[time = t17; location = the_r40] => type = no_such_type : 0.5`,
	} {
		p := mustLine(t, line)
		n, err := tr.Delete(p)
		step(fmt.Sprintf("delete matching nothing %s: removed %d", line, n), err)
	}

	pruned := map[string][]preference.Preference{}
	for _, v := range []string{"colleagues", "all"} {
		ps := encodedUnder(t, tr, v)
		removed := 0
		for _, p := range ps {
			n, err := tr.Delete(p)
			if err != nil {
				t.Fatal(err)
			}
			removed += n
		}
		pruned[v] = ps
		step(fmt.Sprintf("delete branch accompanying_people = %s: %d lines, removed %d", v, len(ps), removed), nil)
	}
	n, err := tr.Delete(mustLine(t, `[accompanying_people = colleagues; time = t05; location = ath_r07] => name = "Golden Spoon" : 0.45`))
	step(fmt.Sprintf("delete an already pruned entry: removed %d", n), err)

	step("re-insert branch all", tr.InsertAll(pruned["all"]...))
	for i, p := range pruned["colleagues"] {
		if err := tr.Insert(p); err != nil {
			t.Fatalf("re-inserting %s: %v", preference.Format(p), err)
		}
		if i == len(pruned["colleagues"])/2 {
			step("re-insert half of branch colleagues one by one", nil)
		}
	}
	step("re-insert the rest of branch colleagues", nil)
	step("repeat the first fixture profile", tr.InsertAll(profiles[0]...))

	got := out.String()
	if *updateLayout {
		if err := os.WriteFile(layoutGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(layoutGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-layout to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", layoutGoldenFile, i+1, g, w)
		}
	}
}
