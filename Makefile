GO ?= go

.PHONY: all build test race vet fmt loc check examples bench-module bench-e2e bench-smoke chaos-smoke chaos-soak inspect-smoke trace-smoke join-smoke capture-smoke clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file of the root module is not gofmt-clean (benchmark/
# is its own module with its own gate, and is left alone).
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go' ':!benchmark'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go lines of the live-runtime packages — the number
# ROADMAP item 5 ("finish the collapse") states its acceptance in — and of
# the operator surface (the HTTP endpoints, the health rules, the probes and
# the CLIs over them; ROADMAP item 6), of the simulator host (the engine, the
# network and host, and the three protocols' clusters on it; ROADMAP item
# 3(c)), then the root module's non-test Go
# total (benchmark/ is its own module) and its number of internal/ packages:
# the figures a simplicity change reports its net lines from. Then the
# settable values: the field counts of the hook set and the configs of the
# live runtime, the simulated cluster, the lifecycle tracer, the
# simulated transport and the health rules (a name list "A, B int" counts
# each name; an embedded config counts once, its fields being its own
# type's). Last, the wall-clock sites: the calls into the time package's clock
# and timers in non-test internal/ code, the count ROADMAP tracks toward an
# injected clock.
loc:
	@count() { label=$$1; shift; total=0; for p in "$$@"; do \
		[ -e $$p ] || continue; \
		n=$$(find $$p -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%-28s %5d\n' $$p $$n; total=$$((total + n)); \
	done; printf '%-28s %5d\n' "$$label" $$total; }; \
	count 'live runtime' internal/rt internal/topics internal/chaos; \
	count 'operator surface' internal/nodehttp internal/health internal/inspect internal/stitch internal/probe \
		internal/rt/status.go cmd/urcgc-node cmd/urcgc-ctl; \
	count 'simulator host' internal/sim internal/simnet internal/core/cluster.go internal/cbcast/cluster.go \
		internal/psync/cluster.go; \
	printf '%-28s %5d\n' 'non-test Go' $$(find . \( -path ./benchmark -o -path ./.git \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	printf '%-28s %5d\n' 'internal packages' $$(find internal -name '*.go' ! -name '*_test.go' \
		-exec dirname {} \; | sort -u | wc -l); \
	fields() { printf '%-28s %5d\n' "$$1 fields" $$(awk -v t="$${1#*.}" ' \
		$$0 ~ "^type " t " struct [{]" { body = 1; next } body && /^}/ { exit } \
		body && match($$0, /^\t[A-Za-z_][A-Za-z0-9_.]*(, *[A-Za-z_][A-Za-z0-9_]*)*([ \t]|$$)/) { \
			names = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", names) + 1 } \
		END { print n + 0 }' $$2); }; \
	fields core.Callbacks internal/core/process.go; fields core.Config internal/core/process.go; \
	fields rt.Config internal/rt/config.go; fields core.ClusterConfig internal/core/cluster.go; \
	fields lifecycle.Options internal/lifecycle/lifecycle.go; fields transport.Config internal/transport/transport.go; \
	fields health.Thresholds internal/health/health.go; \
	printf '%-28s %5d\n' 'wall-clock sites' $$(grep -rEo --include='*.go' --exclude='*_test.go' \
		'time\.(Now|Since|Sleep|After|NewTimer|NewTicker|Tick|AfterFunc|Until)\(' internal | wc -l)

# race runs the concurrency-sensitive packages under the race detector:
# the real-time runtime (node loop, UDP reader, Status/Snapshot sampling),
# the sharded multi-group runtime (shared-socket demux, shard loops, the
# shared burst sender), the protocol core they drive, the flight recorder
# and health evaluator (sampler goroutine vs concurrent readers), the
# cluster inspector (parallel probes against live nodes), and the
# cross-node trace stitcher (parallel /trace collection), and the fault
# injection layer whose checker audits invariants across restarts (the
# rt and core lists include the join/state-transfer paths: Cluster.Restart
# swaps the process on the loop goroutine while Status/Send race it), and
# the codec, whose message arena is unsynchronised by design: one goroutine
# takes from a free list, the socket reader or the mesh shard loop, which the
# rt tables run on both links. The second line reruns the Send rendezvous
# tests ten times: a stale signal on a recycled submission depends on
# interleaving, and a single run can miss it (TestEverySendEndsOnce and both
# rows of TestSendAbandonedDoesNotLeakWaiter also hold every exit path to
# ending the Send's outstanding count) — and so do the closes of a coalescer
# window (every TestWindowClosesWhenLoopDrains row: quiet_member,
# returning_pair and closed_loop race a Send's Add against another's return
# from Await and the loop's drain), and the indication stream's
# stalled-reader row (the conformance table's stalled_reader cells), whose
# spill drainer races the loop's fast path and Stop.
race:
	$(GO) test -race ./internal/rt/... ./internal/topics/... ./internal/core/... ./internal/obs/... ./internal/health/... ./internal/inspect/... ./internal/stitch/... ./internal/faultrt/... ./internal/wire/...
	$(GO) test -race -count=10 -run '^(TestSubmitSignalsOnlyOnProcessing|TestEverySendEndsOnce|TestRecycledSubmissionSeesNoStaleSignal|TestLeaveFailsEveryWaiterExactlyOnce|TestSendAbandonedDoesNotLeakWaiter|TestUDPSendAbandonedDoesNotLeakWaiterOrGoroutines|TestCoalescerStopFailsPendingWindow|TestClusterStopUnblocksWindowedSends|TestWindowClosesWhenLoopDrains|TestConformance)$$/.*/.*/^stalled_reader$$' ./internal/rt/

# check is the tier-1 gate: everything is gofmt-clean, builds, vets clean,
# passes the full suite (the allocs/op budgets of the codec, the idle subrun
# and the live confirm path among it), the concurrency-sensitive packages
# pass under -race,
# the nested benchmark/ module vets clean and passes its short tests,
# every benchmark body still runs (one iteration each), a seeded
# chaos soak upholds the uniform invariants under the race detector, and a live
# three-member cluster inspects healthy end to end through the real
# binaries — including the forensic pipeline: capture dumps from real
# nodes must replay offline to a clean verdict. Every example must run to a
# clean exit, faultdemo's Definition 3.2 verdict among them.
check: fmt vet test race examples bench-module bench-smoke chaos-smoke inspect-smoke trace-smoke join-smoke capture-smoke

# examples builds every program under examples/ into a temporary directory
# and runs it, failing on the first non-zero exit: each self-reports, and
# faultdemo exits 1 when its run's trace violates Definition 3.2.
examples:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for e in examples/*/; do n=$$(basename $$e); \
		$(GO) build -o "$$dir/$$n" ./$$e && "$$dir/$$n" </dev/null >"$$dir/$$n.out" 2>&1 \
			|| { echo "examples: $$n failed:"; cat "$$dir/$$n.out"; exit 1; }; \
		echo "examples: $$n ok"; \
	done

# bench-module vets and short-tests the end-to-end benchmark (benchmark/), a
# nested module that ./... in the root module skips: without it a change to
# an API the benchmark imports (faultrt, rt, topics, core, obs, lifecycle)
# passes every other gate and breaks only the benchmark run. No go build
# here: with one main package it would leave a binary in benchmark/.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# inspect-smoke boots three urcgc-node processes, points urcgc-ctl inspect at
# their observability endpoints, and requires a healthy one-shot verdict —
# the end-to-end gate for the flight recorder, /healthz and the
# cluster-wide divergence detector.
inspect-smoke:
	sh scripts/inspect_smoke.sh

# trace-smoke boots a three-member two-group cluster with lifecycle
# tracing on and requires urcgc-ctl trace to stitch at least one cross-node
# message timeline out of the members' /trace reports — the end-to-end
# gate for per-group spans, /trace?group=N and the (group, MID) join.
trace-smoke:
	sh scripts/trace_smoke.sh

# join-smoke is the dynamic-membership end-to-end gate: three urcgc-node
# processes form a group, one is kill -9'd, the survivors exclude it, and
# a restart with -join must state-transfer back in, be re-admitted into
# every view, answer /healthz 200 and leave urcgc-ctl inspect healthy. A
# failure with URCGC_CAPTURE_DIR set preserves the live members' /capture
# dumps there for urcgc-ctl replay (CI uploads them as artifacts).
join-smoke:
	sh scripts/join_smoke.sh

# capture-smoke is the forensic-pipeline end-to-end gate: three urcgc-node
# processes with the frame flight recorder on (-capture), a burst of
# multicast traffic, then urcgc-ctl replay collects every member's /capture
# dump and must reproduce a clean verdict offline — from the live
# endpoints and again from the saved dump files.
capture-smoke:
	sh scripts/capture_smoke.sh

# chaos-smoke is the CI chaos gate: every ungated test of the one harness
# under -race, each scenario audited for uniform atomicity and ordering on
# every group — the seeded soak (one crash, one healed partition, 1/100
# omission bursts, background reordering and duplication; batched, on two
# groups sharing the link), the one-group partition of a three-group
# cluster, and the rolling-restart smoke (every member kill -9'd and
# rejoined in turn under omissions, audited across incarnations). The
# env-gated soaks skip themselves.
chaos-smoke:
	$(GO) test -race -count 1 ./internal/chaos/

# chaos-soak is the 60-second acceptance soak (same shape, longer wall
# clock), which also asserts member health degraded under the faults and
# recovered after; the five-member, two-group rolling-restart soak (every
# member kill -9'd and rejoined sequentially under 1/100 omission, the
# uniform invariants audited per group across incarnations); plus the five-member
# partition/heal demo: inspect healthy -> divergence naming the cut-off
# member -> healthy again. Also available interactively as
# `go run ./cmd/urcgc-chaos`.
chaos-soak:
	URCGC_CHAOS_SOAK=1 $(GO) test -race -run 'TestLongSoak|TestRollingRestartSoak' -count 1 -timeout 10m -v ./internal/chaos/
	$(GO) test -race -run TestInspectPartitionRecovery -count 1 -timeout 10m -v ./internal/inspect/

# bench-e2e runs one workload of the end-to-end benchmark (benchmark/, its
# own module; BENCHMARK.json names the gated workloads) exactly as the
# driver does: build into .bench_build/, one seeded run, the result line
# last on stdout. Perf PRs pair it against the parent commit and record the
# runs in BENCH_<pr>.json.
WORKLOAD ?= lan_light
SEED ?= 1
bench-e2e:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 18 --trace 0

# bench-smoke executes every benchmark once — a compile-and-run gate,
# not a measurement. Each benchmark lives beside the package it measures (the
# paper's tables and figures in internal/experiments); no gate reads their
# numbers, and the allocation budgets are AllocsPerRun tests in `make test`.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

clean:
	$(GO) clean ./...
