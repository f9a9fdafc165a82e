package contextpref

import (
	"context"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/lint"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/querytree"
	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// TestHotpathAllocBudgets is the runtime half of the //cpvet:hotpath
// contract. The static half (the allocbudget analyzer) keeps anchored
// bodies free of allocating constructs; this test prices the whole
// call, callees included, by mirroring every anchor in the tree with a
// testing.AllocsPerRun measurement against the real workload. The
// anchor inventory comes from the lint loader itself, so adding a
// //cpvet:hotpath anchor without a measurement here fails the test —
// an anchor nothing measures is a comment, not a contract.
func TestHotpathAllocBudgets(t *testing.T) {
	repo, err := lint.LoadSyntax(".")
	if err != nil {
		t.Fatal(err)
	}
	hotpaths := lint.Hotpaths(repo)
	if len(hotpaths) == 0 {
		t.Fatal("no //cpvet:hotpath anchors found; the hot-path contract has been deleted")
	}

	measurements := map[string]func(t *testing.T) float64{
		"internal/profiletree.(*Tree).ResolveCtx": measureResolve,
		"internal/querytree.(*Cache).Get":         measureCacheGet,
		"internal/querytree.(*Cache).GetTop":      measureCacheGetTop,
		"internal/telemetry.(*Histogram).Observe": measureObserve,
		"internal/tracing.Start":                  measureTracingStartDisabled,
	}

	for _, hp := range hotpaths {
		hp := hp
		t.Run(hp.Func, func(t *testing.T) {
			measure, ok := measurements[hp.Func]
			if !ok {
				t.Fatalf("%s (%s) declares allocs=%d but has no AllocsPerRun measurement in this test; add one so the budget is enforced",
					hp.Func, hp.File, hp.Allocs)
			}
			got := measure(t)
			t.Logf("%.1f allocs per run, budget %d", got, hp.Allocs)
			if got > float64(hp.Allocs) {
				t.Errorf("%s allocates %.1f per run, budget is %d (//cpvet:hotpath in %s); either fix the regression or re-measure and move the anchor",
					hp.Func, got, hp.Allocs, hp.File)
			}
		})
	}
}

// measureResolve prices cover-query resolution over the real profile
// with full instrumentation attached — the exact configuration
// BenchmarkResolveInstrumentation benchmarks.
func measureResolve(t *testing.T) float64 {
	const seed = 2007
	env, prefs, err := dataset.RealProfile(seed)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := profiletree.New(env, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefs {
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	coverQs, err := dataset.RandomQueries(env, 64, seed+2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tree.SetMetrics(&profiletree.Metrics{
		Resolutions:     reg.CounterVec("conf_resolve_total", "", "outcome"),
		CellsVisited:    reg.Counter("conf_resolve_cells_total", ""),
		CandidatesFound: reg.Counter("conf_resolve_candidates_total", ""),
		CellsPerResolve: reg.Histogram("conf_resolve_cells", "", telemetry.ExpBuckets(1, 2, 14)),
	})
	m := distance.Jaccard{}
	ctx := context.Background()
	i := 0
	return testing.AllocsPerRun(200, func() {
		q := coverQs[i%len(coverQs)]
		i++
		if _, _, _, err := tree.ResolveCtx(ctx, q, m); err != nil {
			t.Fatal(err)
		}
	})
}

// measureCacheGet prices an exact cache lookup, hits and misses alike.
func measureCacheGet(t *testing.T) float64 {
	const seed = 2007
	env, prefs, err := dataset.RealProfile(seed)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.QueriesFromPrefs(env, prefs, 64, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := querytree.New(env, []int{0, 1, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(qs[0], nil, query.Resolution{Exact: true}); err != nil {
		t.Fatal(err)
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		q := qs[i%len(qs)]
		i++
		if _, _, _, err := cache.Get(q); err != nil {
			t.Fatal(err)
		}
	})
}

// measureCacheGetTop prices the lookup a cached engine's hit runs: a
// top-10 cut of real rankings over 500 POIs, hits and misses alike,
// once each cached state's first hit has built its prefix.
func measureCacheGetTop(t *testing.T) float64 {
	const seed = 2007
	env, prefs, err := dataset.RealProfile(seed)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 500, seed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, rel, WithQueryCache(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPreferences(prefs...); err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.QueriesFromPrefs(env, prefs, 64, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:len(qs)/2] {
		if _, _, err := sys.QueryCached(Query{TopK: 10}, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qs {
		if _, _, _, err := sys.cache.GetTop(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if sys.CacheStats().Hits == 0 {
		t.Fatal("no lookup hit the cache; the measurement would price misses alone")
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		q := qs[i%len(qs)]
		i++
		if _, _, _, err := sys.cache.GetTop(q, 10); err != nil {
			t.Fatal(err)
		}
	})
}

// measureObserve prices one histogram observation.
func measureObserve(t *testing.T) float64 {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("conf_h", "", telemetry.ExpBuckets(1, 2, 10))
	return testing.AllocsPerRun(200, func() { h.Observe(3.7) })
}

// measureTracingStartDisabled prices the untraced path: a context with
// no span must make Start (and the End of the nil span it returns)
// free, so instrumented code pays nothing when tracing is off.
func measureTracingStartDisabled(t *testing.T) float64 {
	ctx := context.Background()
	return testing.AllocsPerRun(200, func() {
		c, sp := tracing.Start(ctx, "conformance")
		_ = c
		sp.End()
	})
}
