# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench bench-json bench-smoke experiments examples fuzz fuzz-smoke verify fmt vet lint lint-json clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem .

# Tier-1 benchmarks as machine-readable JSON, for diffing in CI.
# Parameterized by PR so each PR's numbers land in their own file
# instead of silently overwriting the previous baseline.
BENCH_PR ?= PR26
BENCH_OUT ?= BENCH_$(BENCH_PR).json
# The newest committed BENCH file by PR number, and the newest other
# than BENCH_OUT. The paper's own counts (every metric of the Table 1,
# Fig. 5-7 and ablation benchmarks) must equal theirs: bench-json checks
# its new file against the latter, bench-smoke its run against the
# former (`benchjson -compare`, which also prints allocs/op and B/op
# changes and ignores ns/op).
BENCH_NEWEST = $(shell ls BENCH_PR*.json | sort -V | tail -n 1)
BENCH_PREV = $(shell ls BENCH_PR*.json | grep -vx '$(BENCH_OUT)' | sort -V | tail -n 1)
# The paired tracing benchmark runs in its own pass with a long fixed
# iteration count: its overhead_% metric compares two loopback-HTTP
# arms whose scheduler noise only averages out over tens of thousands
# of requests, far past what the default benchtime samples. Both
# outputs feed the same JSON file.
bench-json:
	{ $(GO) test -run='^$$' -bench=. -benchmem -skip='ResolveTracing/paired$$' . && \
	  $(GO) test -run='^$$' -bench='ResolveTracing/paired$$' -benchtime=2500x -benchmem . ; } | tee /dev/stderr | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -compare $(BENCH_PREV) < $(BENCH_OUT)

# One-iteration smoke of the bench-json pipeline: proves the benchmarks
# still compile, the converter still parses their output, and the
# paper's counts, which repeat exactly at one iteration, still equal the
# newest BENCH file's, without paying for a real measurement. CI runs
# this on every PR.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem . | $(GO) run ./cmd/benchjson -compare $(BENCH_NEWEST)

# Regenerates every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -run all

# Runs every example program and fails on the first non-zero exit:
# `go build ./...` only compiles them, so an example that breaks at run
# time would otherwise go unnoticed.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Short fuzzing sessions over the text parsers, journal recovery, the
# query tree against its model and the query-string lookup.
fuzz:
	$(GO) test -fuzz='FuzzParseLine$$' -fuzztime=30s ./internal/preference/
	$(GO) test -fuzz=FuzzParseLineMatchesReference -fuzztime=30s ./internal/preference/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/cpql/
	$(GO) test -fuzz=FuzzJournalRecovery -fuzztime=30s ./internal/journal/
	$(GO) test -fuzz=FuzzJournalScanMatchesReference -fuzztime=30s ./internal/journal/
	$(GO) test -fuzz='FuzzReplicationFrame$$' -fuzztime=30s ./internal/replication/
	$(GO) test -fuzz=FuzzTraceparent -fuzztime=30s ./internal/tracing/
	$(GO) test -fuzz=FuzzCacheMatchesModel -fuzztime=30s ./internal/querytree/
	$(GO) test -fuzz=FuzzQueryValueMatchesParseQuery -fuzztime=30s ./httpapi/

# Quick fuzz smoke of the query and line parsers (the line parser also
# against its reference), journal recovery (the scan also against its
# reference), the query tree against its model and the query-string
# lookup against url.ParseQuery, cheap enough for CI.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/cpql/
	$(GO) test -fuzz='FuzzParseLine$$' -fuzztime=5s ./internal/preference/
	$(GO) test -fuzz=FuzzParseLineMatchesReference -fuzztime=5s ./internal/preference/
	$(GO) test -fuzz=FuzzJournalRecovery -fuzztime=5s ./internal/journal/
	$(GO) test -fuzz=FuzzJournalScanMatchesReference -fuzztime=5s ./internal/journal/
	$(GO) test -fuzz='FuzzReplicationFrame$$' -fuzztime=5s ./internal/replication/
	$(GO) test -fuzz=FuzzTraceparent -fuzztime=5s ./internal/tracing/
	$(GO) test -fuzz=FuzzCacheMatchesModel -fuzztime=5s ./internal/querytree/
	$(GO) test -fuzz=FuzzQueryValueMatchesParseQuery -fuzztime=5s ./httpapi/

# The pre-merge gate: static checks, the race detector, and a fuzz smoke.
verify: vet lint race fuzz-smoke

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# cpvet: the repo's own static-analysis pass over the service-layer
# contracts (structured errors, slog-only logging, scan-loop
# cancellation, cp_* metric naming, deterministic replay paths, %w
# wrapping, span lifetimes) and the concurrency/allocation contracts
# (lock ordering, unlock discipline, goroutine lifecycles, hot-path
# allocation budgets). Any finding fails the target; see README
# "Static analysis" and DESIGN §14.
lint:
	$(GO) run ./cmd/cpvet ./...

# Machine-readable lint report, uploaded as a CI artifact.
lint-json:
	$(GO) run ./cmd/cpvet -json ./... > cpvet-report.json

# Reproduces the artifacts checked into the repository root.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f cover.out
