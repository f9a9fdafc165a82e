package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"contextpref"
	"contextpref/internal/dataset"
)

// workload is one traffic mix: the data the server holds, the flags it
// runs with, and the op stream the load generator offers it. Every
// workload is multi-user; see README.md for why each one exists.
type workload struct {
	name string

	users int // per-user profiles
	prefs int // preferences per profile
	pois  int // points of interest in the ranked relation

	cache       int  // -cache: query-tree capacity per user
	shards      int  // -shards
	maxResident int  // -max-resident-users (0 = unbounded)
	store       bool // -store: data is a journal written before the run and replayed at start

	// Op mix in percent; queryPct+resolvePct+writePct = 100.
	queryPct, resolvePct, writePct int

	userZipf   float64 // zipf exponent over users; 0 = uniform
	hotStates  int     // per-user hot set drawn with zipf stateZipf; 0 = use the global pool
	stateZipf  float64 // zipf exponent over a user's hot set
	poolStates int     // global pool of mixed-level states, drawn uniformly
	churn      int     // per-user pool of preferences that writes toggle

	rate     float64 // open-loop offered rate, ops/s
	traceOps int     // ops the traced run replays
}

// workloads are the benchmark's traffic mixes, in run order. The rates
// are a seventh to a fifth of the 2-connection capacity measured on the
// reference host (README.md, "Sizing"), and at most a third of it in the
// host's slow periods: above that, queueing made the tail latencies
// swing from run to run.
var workloads = []workload{
	// Cached results fit, so serving overhead (HTTP, locks, query-tree
	// lookups) dominates and the engine idles.
	{
		name:  "hot-cache",
		users: 64, prefs: 522, pois: 300, cache: 64, shards: 1,
		queryPct: 100, userZipf: 1.1, hotStates: 16, stateZipf: 1.1,
		rate: 2500, traceOps: 20000,
	},
	// The state working set is 64x the query cache, so nearly every op
	// runs Search_CS with Jaccard plus Rank_CS.
	{
		name:  "cold-rank",
		users: 16, prefs: 522, pois: 500, cache: 64, shards: 1,
		queryPct: 70, resolvePct: 30, poolStates: 4096,
		rate: 900, traceOps: 20000,
	},
	// A quarter of the ops toggle preferences: every write pays a journal
	// fsync and flushes that user's query cache.
	{
		name:  "write-mix",
		users: 256, prefs: 60, pois: 300, cache: 64, shards: 4, store: true,
		queryPct: 65, resolvePct: 10, writePct: 25, userZipf: 1.1, hotStates: 16, stateZipf: 1.1, churn: 16,
		rate: 1600, traceOps: 20000,
	},
	// Users outnumber the resident bound 40x, so almost every op unparks
	// and rebuilds a profile tree.
	{
		name:  "parked-users",
		users: 5120, prefs: 20, pois: 300, cache: 64, shards: 4, maxResident: 128, store: true,
		queryPct: 90, resolvePct: 10, poolStates: 4096,
		rate: 600, traceOps: 20000,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs are the cpserver flags that give the workload its shape;
// everything else stays at the binary's production defaults. store is
// the store directory (ignored unless the workload is store-backed).
func (w workload) serverArgs(seed int64, store string) []string {
	args := []string{
		"-multiuser",
		"-pois", strconv.Itoa(w.pois),
		"-seed", strconv.FormatInt(seed, 10),
		"-cache", strconv.Itoa(w.cache),
		"-shards", strconv.Itoa(w.shards),
	}
	if w.maxResident > 0 {
		args = append(args, "-max-resident-users", strconv.Itoa(w.maxResident))
	}
	if w.store {
		args = append(args, "-store", store)
	}
	return args
}

// Sub-seeds. User u's profile is generated with seed+u; every other
// input stream gets its own offset so no two streams share a seed for
// any workload size.
const (
	hotSeedOffset    = 1 << 21
	poolSeedOffset   = 1 << 22
	churnSeedOffset  = 1 << 23
	streamSeedOffset = 1 << 24
)

// Stream identifiers for streamSeed.
const (
	streamOpen   = 1
	streamTrace  = 2
	streamOracle = 3
	streamClosed = 10 // + worker index
)

func streamSeed(seed int64, stream int) int64 { return seed + streamSeedOffset + int64(stream) }

// opKind is what one op asks of the server.
type opKind uint8

const (
	opQuery   opKind = iota // POST /query
	opResolve               // GET /resolve
	opWrite                 // a toggle, resolved to opAdd or opRemove when it is sent
	opAdd                   // POST /preferences
	opRemove                // DELETE /preferences
)

func (k opKind) isWrite() bool { return k >= opWrite }

func (k opKind) String() string {
	return [...]string{"query", "resolve", "write", "add", "remove"}[k]
}

// op is one request of the stream.
type op struct {
	kind  opKind
	user  int
	state int // index into inputs.states, for reads
	pref  int // index into the user's churn pool, for writes
}

// inputs are everything generated from (workload, seed): the profiles
// the server is loaded with, the states the ops read, and the churn
// pools the writes toggle. The server only ever sees these.
type inputs struct {
	w workload

	env *contextpref.Environment
	rel *contextpref.Relation // the same relation cpserver builds from -pois/-seed

	users     []string
	userIndex map[string]int
	profiles  [][]contextpref.Preference
	texts     []string // upload body per user, one preference per line
	churn     [][]contextpref.Preference
	churnText [][]string

	states  []contextpref.State
	hotBase int // user u's k-th hot state is states[hotBase+u*w.hotStates+k]

	queryBody [][]byte // POST /query body per state
	stateArg  []string // /resolve state parameter per state
}

// generate builds the workload's inputs for a seed.
func generate(w workload, seed int64) (*inputs, error) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		return nil, err
	}
	rel, err := dataset.POIs(env, w.pois, seed)
	if err != nil {
		return nil, err
	}
	if err := rel.CreateIndex("type"); err != nil {
		return nil, err
	}
	in := &inputs{w: w, env: env, rel: rel, userIndex: make(map[string]int, w.users)}
	for u := 0; u < w.users; u++ {
		name := fmt.Sprintf("u%05d", u)
		in.users = append(in.users, name)
		in.userIndex[name] = u
		prefs, err := userProfile(env, w.prefs, seed+int64(u))
		if err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, prefs)
		lines := make([]string, len(prefs))
		for i, p := range prefs {
			lines[i] = contextpref.FormatPreference(p)
		}
		in.texts = append(in.texts, strings.Join(lines, "\n")+"\n")
		if w.churn > 0 {
			pool, err := churnPool(env, lines, w.churn, seed+churnSeedOffset+int64(u))
			if err != nil {
				return nil, fmt.Errorf("user %s: %w", name, err)
			}
			in.churn = append(in.churn, pool)
			text := make([]string, len(pool))
			for i, p := range pool {
				text[i] = contextpref.FormatPreference(p)
			}
			in.churnText = append(in.churnText, text)
		}
	}
	if w.poolStates > 0 {
		pool, err := dataset.RandomQueries(env, w.poolStates, seed+poolSeedOffset, 0.3)
		if err != nil {
			return nil, err
		}
		in.states = append(in.states, pool...)
	}
	in.hotBase = len(in.states)
	for u := 0; u < w.users && w.hotStates > 0; u++ {
		hot, err := hotSet(env, in.profiles[u], w.hotStates, seed+hotSeedOffset+int64(u))
		if err != nil {
			return nil, fmt.Errorf("user %s: %w", in.users[u], err)
		}
		in.states = append(in.states, hot...)
	}
	for _, st := range in.states {
		body := fmt.Sprintf(`{"query":"top 10","current":["%s"]}`, strings.Join(st, `","`))
		in.queryBody = append(in.queryBody, []byte(body))
		in.stateArg = append(in.stateArg, strings.Join(st, ","))
	}
	return in, nil
}

// userProfile generates one user's profile with the paper's real-profile
// shape: zipf a=1.0 value skew and 20% of values lifted to upper levels.
func userProfile(env *contextpref.Environment, n int, seed int64) ([]contextpref.Preference, error) {
	return dataset.ProfileSpec{
		Env:            env,
		NumPrefs:       n,
		Seed:           seed,
		Dist:           dataset.Zipf,
		ZipfA:          1.0,
		UpperLevelProb: 0.2,
	}.Generate()
}

// hotSet draws n mixed-level states that the profile covers: the state
// of a random stored preference with each value replaced by a random
// detailed descendant, lifted back up one or more levels with
// probability 0.3 (the mix dataset.RandomQueries draws). Only
// contextual answers are cached, so an uncovered state would miss the
// query cache on every access, and a hot set is meant to fit in it.
func hotSet(env *contextpref.Environment, prefs []contextpref.Preference, n int, seed int64) ([]contextpref.State, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]contextpref.State, 0, n)
	for len(out) < n {
		states, err := prefs[r.Intn(len(prefs))].Descriptor.Context(env)
		if err != nil {
			return nil, err
		}
		stored := states[r.Intn(len(states))]
		st := make(contextpref.State, len(stored))
		for i, v := range stored {
			h := env.Param(i).Hierarchy()
			desc, err := h.Descendants(v)
			if err != nil {
				return nil, err
			}
			st[i] = desc[r.Intn(len(desc))]
			if lv, _ := h.LevelOf(v); lv > 0 && r.Float64() < 0.3 {
				if st[i], err = h.Anc(st[i], 1+r.Intn(lv)); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// churnPool draws n distinct preferences that no base profile line
// equals, so toggling one never adds or removes a base entry. Scores are
// a function of the clause value, so a churn preference never conflicts
// with the profile either.
func churnPool(env *contextpref.Environment, base []string, n int, seed int64) ([]contextpref.Preference, error) {
	taken := make(map[string]bool, len(base)+n)
	for _, l := range base {
		taken[l] = true
	}
	cands, err := userProfile(env, 8*n, seed)
	if err != nil {
		return nil, err
	}
	var out []contextpref.Preference
	for _, p := range cands {
		l := contextpref.FormatPreference(p)
		if taken[l] {
			continue
		}
		taken[l] = true
		out = append(out, p)
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("churn pool: only %d of %d distinct preferences", len(out), n)
}

// request renders an op as the HTTP method, path with query string, and
// body the server receives. Writes must already be resolved to opAdd or
// opRemove.
func (in *inputs) request(o op) (method, target string, body []byte) {
	user := url.QueryEscape(in.users[o.user])
	switch o.kind {
	case opQuery:
		return "POST", "/query?user=" + user, in.queryBody[o.state]
	case opResolve:
		return "GET", "/resolve?user=" + user + "&state=" + url.QueryEscape(in.stateArg[o.state]), nil
	case opAdd:
		return "POST", "/preferences?user=" + user, []byte(in.churnText[o.user][o.pref])
	case opRemove:
		return "DELETE", "/preferences?user=" + user, []byte(in.churnText[o.user][o.pref])
	}
	panic(fmt.Sprintf("cpbench: unresolved op kind %v", o.kind))
}

// userWeights are the relative access frequencies of the users.
func (in *inputs) userWeights() []float64 {
	ws := make([]float64, in.w.users)
	for u := range ws {
		ws[u] = 1
		if in.w.userZipf > 0 {
			ws[u] = math.Pow(float64(u+1), -in.w.userZipf)
		}
	}
	return ws
}

// partition assigns every user to one of n load connections, balancing
// the expected op share greedily. All of a user's ops travel on one
// connection, in stream order, so the toggle state the generator models
// is exactly the server's.
func (in *inputs) partition(n int) []int {
	ws := in.userWeights()
	load := make([]float64, n)
	owner := make([]int, len(ws))
	// Weights never increase with the user index, so index order is
	// heaviest-first.
	for u, wt := range ws {
		best := 0
		for c := 1; c < n; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		owner[u] = best
		load[best] += wt
	}
	return owner
}

// generator draws the seeded op stream of a workload. It is not safe
// for concurrent use; each load connection owns its own.
type generator struct {
	in    *inputs
	r     *rand.Rand
	users *dataset.Sampler // nil: uniform over users
	ranks *dataset.Sampler // nil: no hot sets
	only  []bool           // when set, draws are restricted to these users
}

// rankNames are the hot-set ranks as sampler values.
var rankNames = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

func newGenerator(in *inputs, seed int64, only []bool) (*generator, error) {
	g := &generator{in: in, r: rand.New(rand.NewSource(seed)), only: only}
	var err error
	if in.w.userZipf > 0 {
		if g.users, err = dataset.NewSampler(in.users, dataset.Zipf, in.w.userZipf, g.r); err != nil {
			return nil, err
		}
	}
	if in.w.hotStates > 0 {
		if in.w.hotStates > len(rankNames) {
			return nil, fmt.Errorf("hot set of %d states exceeds %d", in.w.hotStates, len(rankNames))
		}
		if g.ranks, err = dataset.NewSampler(rankNames[:in.w.hotStates], dataset.Zipf, in.w.stateZipf, g.r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *generator) user() int {
	for {
		u := 0
		if g.users != nil {
			u = g.in.userIndex[g.users.Draw()]
		} else {
			u = g.r.Intn(g.in.w.users)
		}
		if g.only == nil || g.only[u] {
			return u
		}
	}
}

func (g *generator) state(u int) int {
	if g.ranks == nil {
		return g.r.Intn(g.in.w.poolStates)
	}
	k, _ := strconv.Atoi(g.ranks.Draw()) // rankNames are decimal by construction
	return g.in.hotBase + u*g.in.w.hotStates + k
}

// next draws one op of the workload's mix.
func (g *generator) next() op {
	o := op{user: g.user()}
	x := g.r.Intn(100)
	w := g.in.w
	switch {
	case x < w.queryPct:
		o.kind = opQuery
	case x < w.queryPct+w.resolvePct:
		o.kind = opResolve
	default:
		o.kind = opWrite
		o.pref = g.r.Intn(w.churn)
		return o
	}
	o.state = g.state(o.user)
	return o
}

// read draws a read op of the given kind, from the workload's user and
// state distributions.
func (g *generator) read(kind opKind) op {
	u := g.user()
	return op{kind: kind, user: u, state: g.state(u)}
}

// plan draws the first n ops of a stream: a pure function of the
// inputs, the stream seed and n.
func plan(in *inputs, seed int64, n int) ([]op, error) {
	g, err := newGenerator(in, seed, nil)
	if err != nil {
		return nil, err
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops, nil
}

// toggles models which churn preferences each user currently holds.
// A write is resolved against it when sent: POST if absent, DELETE if
// present, so profile sizes stay stationary. Each user's bits are only
// touched by the connection that owns the user.
type toggles []uint32

// resolve turns an opWrite into opAdd or opRemove; other ops pass
// through.
func (t toggles) resolve(o op) op {
	if o.kind != opWrite {
		return o
	}
	o.kind = opAdd
	if t[o.user]&(1<<o.pref) != 0 {
		o.kind = opRemove
	}
	return o
}

// commit records a resolved write as applied.
func (t toggles) commit(o op) {
	if o.kind == opAdd || o.kind == opRemove {
		t[o.user] ^= 1 << o.pref
	}
}

// present lists the churn preferences a user holds.
func (t toggles) present(in *inputs, u int) []contextpref.Preference {
	var out []contextpref.Preference
	for i, p := range in.churn[u] {
		if t[u]&(1<<i) != 0 {
			out = append(out, p)
		}
	}
	return out
}
