# Development entry points. `make check` is the extended verify chain
# CI runs; see ROADMAP.md.

GO ?= go

.PHONY: build vet fmt bench-module kregret-vet test test-race test-debug test-fault test-serve test-chaos test-crash fuzz-smoke bench bench-diff bench-smoke bench-shard check

build:
	$(GO) build ./...

# Vet every build: untagged, and with each build tag, so files behind
# a constraint (the fault-injection sites, the chaos soak, the
# invariant layer) are checked too.
vet:
	$(GO) vet ./...
	$(GO) vet -tags kregretfault ./...
	$(GO) vet -tags kregretdebug ./...

# Fails when gofmt would rewrite any tracked Go file. The analyzer
# fixtures under testdata/ are excluded: their expected findings are
# pinned to line numbers.
fmt:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The benchmark is its own module (cmd/kregret-bench/go.mod), so the
# root ./... skips it. Vet and test it through its replace directive so
# a library change that breaks the benchmark fails here.
bench-module:
	$(GO) -C cmd/kregret-bench vet ./...
	$(GO) -C cmd/kregret-bench test ./...

# Domain-aware static analysis: floatcmp, slicealias, naninf, errdrop,
# ctxflow, poolscope, atomicguard, wireguard, sleepctx — over the same
# three builds as vet.
kregret-vet:
	$(GO) run ./cmd/kregret-vet ./...
	$(GO) run ./cmd/kregret-vet -tags kregretfault ./...
	$(GO) run ./cmd/kregret-vet -tags kregretdebug ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Same tests with the runtime invariant layer compiled in: violated
# geometric invariants (Lemma 1 ranges, downward-closedness, simplex
# feasibility) panic instead of passing silently.
test-debug:
	$(GO) test -tags kregretdebug ./...

# Same tests with the fault-injection harness compiled in; includes
# the fallback_test.go suite that forces each degradation edge
# (GeoGreedy → perturbed retry → Greedy → Cube).
test-fault:
	$(GO) test -tags kregretfault ./...

# Serving-engine stress: the admission/breaker/persistence layer under
# the race detector with the fault-injection harness compiled in —
# concurrent query storms, forced queue overflow, breaker trips and
# torn snapshot writes.
test-serve:
	$(GO) test -race -tags kregretfault -count=1 \
		-run 'Engine|Pool|Breaker|Snapshot|SaveFile|LoadFile|Fault' \
		./internal/serve .

# Seeded chaos soak: 20 consecutive fault schedules, each arming a
# randomized combination of injection sites against a live engine
# under concurrent mixed load, checked against the five global
# invariants (request conservation, breaker reclose, snapshot
# rebuild, leak-free shutdown, byte-identical non-degraded answers).
# Replay one failing seed with:
#   go test -race -tags kregretfault ./internal/chaos \
#       -chaos.seed <seed> -chaos.runs 1
test-chaos:
	$(GO) test -race -tags kregretfault -count=1 ./internal/chaos -chaos.runs 20

# Durability proof: the crash-point-exact recovery matrix. First the
# torn-tail sweep — a scripted mutation history whose WAL is truncated
# at EVERY byte offset, each cut recovering bit-for-bit to an
# acknowledged state (plain and across a mid-history compaction) —
# then the fault-site sweep, arming each durability injection point
# (wal.append, wal.sync, wal.rotate, persist.sync) at every execution
# it has in the script, plus the 20-seed chaos soak whose storm now
# includes the durable-mutation client class and the post-drain
# recovery invariant.
test-crash:
	$(GO) test -race -count=1 -run 'CrashPointSweep' .
	$(GO) test -race -tags kregretfault -count=1 \
		-run 'CrashFaultSiteSweep|InjectedFsync|EngineFoldSurvives' .
	$(GO) test -race -tags kregretfault -count=1 ./internal/chaos -chaos.runs 20

# Short native-fuzzing pass over the public constructors, the query
# path, the snapshot decoder, Recover's log replay, the flat-matrix
# kernels and GeoGreedy's loop: degenerate datasets must produce an
# error or a valid Answer, corrupt snapshots a typed error — never a
# panic — the one-pass replay must match the record-at-a-time oracle
# (points, sequence number and error text), the kernels must match the
# scalar reference bit-for-bit on arbitrary float bit patterns, and
# GeoGreedy must match its full-sweep oracle bit-for-bit on
# fuzzer-built grids.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzNewDataset -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzQuery -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzCoresetBound -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzLoadIndex -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzRecoverReplay -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzKernels -fuzztime=10s ./internal/mat
	$(GO) test -run=^$$ -fuzz=FuzzGeoGreedyOracle -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal

# Performance baseline: runs BenchmarkPaper at parallelism 1 and at
# the machine width (GOMAXPROCS), alternating five passes each of
# 300ms per row, so microsecond rows time their steady state rather
# than their first call, and writes BENCH_<rev>.json: each row's
# median ns/op and its IQR over the five samples, B/op, allocs/op and
# the speedup of the medians.
# Compare the json against the previous revision's before merging
# perf work; the interesting regressions are allocs/op (the scratch
# pools) and the sequential ns/op (parallelism must not tax
# workers=1).
bench:
	$(GO) run ./cmd/benchbaseline -count 5 -benchtime 300ms

# Baseline plus comparison: records the same report, then diffs it
# against the most recent earlier BENCH_*.json and fails on a >10%
# sequential median ns/op regression (when n and benchtime match).
bench-diff:
	$(GO) run ./cmd/benchbaseline -count 5 -benchtime 300ms -diff latest

# Same harness at toy size: proves the flag plumbing, the bench run
# and the json writer end to end in seconds, then asserts sequential
# and parallel runs return identical answers (the differential
# determinism suite). Part of `make check`; the ns/op numbers
# themselves are meaningless at this scale.
bench-smoke:
	$(GO) run ./cmd/benchbaseline -n 4000 -benchtime 1x \
		-out /tmp/kregret_bench_smoke.json
	$(GO) test -count=1 -run 'ParallelMatch|ParallelExhaustion|EngineParallelism|WidthParity' \
		./internal/core .

# Sharded serving smoke: the cold-query pair (unsharded baseline vs
# partition–merge) through the benchbaseline harness at toy size, then
# the differential suite proving S=1/eps=0 byte-identity and the eps
# bound. Part of `make check`; the ns/op numbers are meaningless at
# this scale — the point is that the sharded path builds, serves and
# stays within its contract.
bench-shard:
	$(GO) run ./cmd/benchbaseline -n 4000 -benchtime 1x \
		-bench 'Paper/(ColdQuery|ShardedColdQuery)' \
		-out /tmp/kregret_bench_shard.json
	$(GO) test -count=1 -run 'Sharded|MergeShardCores|CoresetDifferential' .

check: build vet fmt bench-module kregret-vet test-race test-debug test-fault test-serve test-chaos test-crash bench-smoke bench-shard
