GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-record bench-drift frontdoor-smoke bench-record-frontdoor bench-drift-frontdoor bench-record-cluster bench-drift-cluster churn-smoke qscale-smoke crashrec-smoke chaos-smoke cluster-smoke selfheal-smoke perfbench-smoke clean

# The columnar hot-path benchmarks: each has /before (row-map era) and
# /after (columnar) variants so the committed record carries its own
# baseline.
BENCH_PKGS = ./internal/match/ ./internal/core/ ./internal/scanshare/ ./internal/frontdoor/ ./internal/cluster/ ./internal/comm/
BENCH_RE   = 'RoutePath|PredicateCompile|ScanFanout'
# The front-door pipelining benchmark keeps its own record: its numbers
# move with scheduler behaviour, not routing code.
FD_BENCH_RE = 'FrontdoorWindow'
# The router fan-out benchmark records what the shard-health apparatus
# (breaker + backoff + detector evidence) costs on the hot path.
CL_BENCH_RE = 'RouterFanout'

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Shuffled so test-order coupling (shared detector/breaker state would be
# the classic offender) cannot hide.
test:
	$(GO) test -shuffle=on ./...

# The transport pool is exercised heavily by concurrent scans/probes;
# keep the race detector in the default CI gate.
race:
	$(GO) test -race -shuffle=on ./...

# A short end-to-end churn run: kill/revive cameras mid-workload and
# check the failure detector's numbers print sanely.
churn-smoke:
	$(GO) run ./cmd/aortabench -exp churn -minutes 3

# The crash-recovery study: five engine kill/restart cycles over one
# journal; fails loudly if any outcome or query is lost.
crashrec-smoke:
	$(GO) run ./cmd/aortabench -exp crashrec

# The full query-scaling study: scan coalescing at O(D) plus
# index-vs-brute routing timings (fast — manual clock + microbenchmark).
qscale-smoke:
	$(GO) run ./cmd/aortabench -exp qscale

# A short front-door study under the race detector: concurrent pipelined
# clients against the real door over simulated high-latency links.
frontdoor-smoke:
	$(GO) run -race ./cmd/aortabench -exp frontdoor -clients 60

# The chaos study under the race detector: evaluation panics, WAL
# faults, camera churn, and slow links against one engine process;
# exits non-zero if any fail-operational invariant breaks.
chaos-smoke:
	$(GO) run -race ./cmd/aortabench -exp chaos

# The sharded-cluster study under the race detector: router fan-out and
# id-pruned placement at 1/2/4/8 shards, the aggregate-throughput
# scaling bar, and the kill-one-shard WAL handoff; exits non-zero if
# placement, scaling, or the zero-loss audit breaks.
cluster-smoke:
	$(GO) run -race ./cmd/aortabench -exp cluster

# The self-healing study under the race detector: kill a shard mid-
# stream (auto-detect + auto-retire + WAL handoff), flap a shard inside
# the grace window (no false retirement), and DRAIN SHARD under
# concurrent fan-outs (zero loss, zero dropped statements); exits
# non-zero if any invariant breaks.
selfheal-smoke:
	$(GO) run -race ./cmd/aortabench -exp selfheal

# The repository benchmark's own checks. perfbench is a module of its
# own, so the root `go test ./...` never runs its self-test; the 5-second
# stmt_read (statement path) and event_scan (event path) runs exit
# non-zero unless every answer was correct.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	bash perfbench/run.sh --workload stmt_read --seed 1 --seconds 5 --trace 0
	bash perfbench/run.sh --workload event_scan --seed 1 --seconds 5 --trace 0

bench:
	$(GO) test -run xxx -bench . -benchmem .

# One iteration of every match/core/scanshare/frontdoor/cluster/comm
# benchmark under the race detector: catches bit-rot (and data races) in
# the benchmark code itself without paying for real measurements. Includes
# core's BenchmarkAdhocPinnedSelect, whose reads/op (1 with the
# acquisition pushdown) and allocs/op are host-stable, and comm's
# BenchmarkScanBatchFarm, whose dials/op is 0 once the pool is warm.
bench-smoke:
	$(GO) test -race -run xxx -bench . -benchtime=1x $(BENCH_PKGS)

# Re-measure the routing benchmarks and rewrite the committed record.
bench-record:
	$(GO) test -run xxx -bench $(BENCH_RE) -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -o BENCH_routing.json

# Compare a fresh run against the committed record. Informational by
# default; set MAX_DRIFT_PCT to fail on regressions beyond that bound.
MAX_DRIFT_PCT ?= 0
bench-drift:
	$(GO) test -run xxx -bench $(BENCH_RE) -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -drift BENCH_routing.json -max $(MAX_DRIFT_PCT)

# Re-measure the front-door window benchmark and rewrite its record.
bench-record-frontdoor:
	$(GO) test -run xxx -bench $(FD_BENCH_RE) -benchmem ./internal/frontdoor/ \
		| $(GO) run ./cmd/benchjson -o BENCH_frontdoor.json

bench-drift-frontdoor:
	$(GO) test -run xxx -bench $(FD_BENCH_RE) -benchmem ./internal/frontdoor/ \
		| $(GO) run ./cmd/benchjson -drift BENCH_frontdoor.json -max $(MAX_DRIFT_PCT)

# Re-measure the router fan-out benchmark and rewrite its record.
bench-record-cluster:
	$(GO) test -run xxx -bench $(CL_BENCH_RE) -benchmem ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -o BENCH_cluster.json

bench-drift-cluster:
	$(GO) test -run xxx -bench $(CL_BENCH_RE) -benchmem ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -drift BENCH_cluster.json -max $(MAX_DRIFT_PCT)

clean:
	$(GO) clean ./...
