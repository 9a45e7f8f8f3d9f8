# Verification entry points. `make verify` is the tier-1 gate: gofmt,
# vet, build, full test suite, the benchmark module's vet and short
# tests (perfbench), then the race detector over the packages
# with concurrency (the probe scheduler, the thread-safe simulator, and
# the campaign that drives them in parallel), the fault-plane gates
# (fast-path equivalence, zero-fault golden equivalence, and the
# graceful-degradation chaos sweep), the crash-safety gate (the
# kill/resume grid plus the chaossweep -kill-after smoke) and the
# supervised-daemon race gate (race-regiond), the FIB differential gate
# (fib-diff), the allocation gate (bench-mem), which fails on a >10%
# bytes_per_op regression against the previous PR's benchmark archive,
# and the anti-superlinear scaling gate (bench-scale), which fails when
# a 10x topology costs more than 18x the paper-size wall time.

GO ?= go

.PHONY: verify build test fmt vet perfbench race race-infer race-regiond equivalence chaos crash fib-diff bench bench-mem bench-sched bench-diff bench-scale bench-window fuzz-seg fuzz-lookup serve-bench profile clean

verify: fmt vet build test perfbench race race-infer race-regiond equivalence chaos crash fib-diff fuzz-seg fuzz-lookup bench-mem serve-bench bench-scale bench-window

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt as a gate: the target fails (and lists the offenders) when any
# tracked Go file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The benchmark driver is its own module (perfbench/go.mod), so the
# root `go build ./...` never compiles it: vet and short-test it here
# so an API change that breaks the benchmark fails verify.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

race:
	$(GO) test -race ./internal/netsim/... ./internal/probesched/... ./internal/comap/... ./internal/snapshot/...

# Race-detect the parallel-inference paths specifically (short mode so
# the sharded mapping/graph/alias/figure tests run without the full
# multi-grid campaigns).
race-infer:
	$(GO) test -race -short -count=1 \
		-run 'MapFold|Reduce|Deterministic|GoldenDigest|NodeAddrsSorted' \
		./internal/probesched/ ./internal/comap/ ./internal/core/ ./internal/alias/ ./internal/mobilemap/ ./internal/dnsdb/

# Probe fast-path equivalence: the campaign digest must match the
# golden captured before the fast path (LPM FIB + compiled flows)
# landed, across a GOMAXPROCS x workers grid. The zero-fault-plan test
# extends the same guarantee to the fault layer: an installed-but-empty
# FaultPlan may not move a byte. The netsim tests pin the fast path's
# allocations (a compiled flow's probe allocates nothing, a compile two
# objects) and the comap test holds the packed-key MPLS false-pair pass
# to its [2]netip.Addr reference. The snapshot tests hold regiond's
# pre-encoded answers byte-identical to json.Encoder over the struct
# API and pin their per-request allocations.
equivalence:
	$(GO) test ./internal/probesched/ ./internal/netsim/ ./internal/comap/ ./internal/snapshot/ -count=1 \
		-run 'TestFastPathMatchesGoldenDigest|TestZeroFaultPlanMatchesGoldenDigest|TestFlowProbeAllocatesNothing|TestCompileFlowAllocs|TestFindFalsePairsMatchesReference|TestServedAnswersMatchEncoder|TestServedAnswerAllocs'

# Graceful degradation: the faulted campaign must stay deterministic
# across worker counts, account for every probe, and the chaos sweep's
# CO recall must slide rather than cliff as the loss grid worsens.
chaos:
	$(GO) test ./internal/probesched/ -run TestFaultedCampaignDeterministicAcrossWorkers -count=1
	$(GO) run ./cmd/chaossweep -icmp-rate 2 -check

# Supervised-daemon race gate: the regiond refresh supervisor under the
# race detector — panic recovery, the failure ledger feeding /v1/health,
# and shutdown racing a refresh that publishes into a live store while
# concurrent readers hammer the health endpoint.
race-regiond:
	$(GO) test -race -count=1 ./cmd/regiond/

# Crash-safety gate: the durable spill engine end to end. The grid test
# kills a durable campaign at the first window seal, mid-campaign, the
# last window seal, and mid-checkpoint-rename — across window sizes and
# worker counts — then resumes over the surviving spill directory with a
# cold simulator and requires bit-identical golden digests. The
# traceroute tests pin manifest recovery classification (including a
# decode fuzz corpus), and the segfault tests pin the injected-fault
# filesystem's crash model itself. The chaossweep smoke exercises the
# same guarantee through the real CLI binary.
crash:
	$(GO) test ./internal/probesched/ -count=1 \
		-run 'TestDurableCampaignMatchesGoldenDigest|TestDurableKillAndResumeGrid|TestDurableCompleteReplayMatchesGolden'
	$(GO) test ./internal/traceroute/ ./internal/segfault/ -count=1
	$(GO) run ./cmd/chaossweep -kill-after 40 -trace-window 16

# FIB differential gate: the compiled prefix-set trie that now serves
# route resolution must answer every lookup identically to the retained
# masked-prefix reference index, across randomized prefix sets (seeded,
# so failures reproduce) and the full simulator integration path.
fib-diff:
	$(GO) test ./internal/netsim/ -run 'TestTrieFIBMatchesMaskedReference|TestTrieFIBNetworkIntegration|FuzzTrieFIBDifferential' -count=1

# Anti-superlinear scaling gate: run the end-to-end cable campaign at
# 1x/3x/10x topology scale (10x = 340 regions, >1M allocated subscriber
# addresses across both operators), archive the curve as BENCH_PR7.json,
# and fail when the 10x/1x wall-time ratio exceeds 18 (a quadratic term
# in any stage pushes it past 40). -benchtime 1x: each scale point is a
# full campaign, one run each is the measurement — which makes the
# ratio noisy on a shared box (the 10x run is memory-bound and gains
# less from an idle machine than the CPU-bound 1x denominator, so the
# same code measures anywhere from 12.8x to 15.5x across a day). The
# limit leaves ~30% headroom over the ~13.8x measured back-to-back
# against the PR 7 baseline; it exists to catch quadratic blowups, not
# 10% drift.
bench-scale:
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkScaleCampaign \
		-benchmem -benchtime 1x -timeout 30m \
		| $(GO) run ./cmd/benchjson -scale-gate 18 > BENCH_PR7.json

# Streaming-engine memory gate: the 10x campaign through shrinking
# trace windows against the 1x and 10x resident anchors, archived as
# BENCH_PR8.json. benchjson -mem-ceiling 3 fails when the smallest
# windowed 10x run allocates more than 3x the 1x resident baseline per
# op — windowed memory must track the window, not the campaign.
bench-window:
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkWindowedCampaign \
		-benchmem -benchtime 1x -timeout 30m \
		| $(GO) run ./cmd/benchjson -mem-ceiling 3 > BENCH_PR8.json

# Segment-decoder fuzz smoke: five seconds of coverage-guided mutation
# over the spill-log frames. The decoder must reject arbitrary
# corruption with its named errors, never a panic or an OOM-sized
# allocation; the seed corpus covers truncation, CRC damage, and count
# inflation.
fuzz-seg:
	$(GO) test ./internal/traceroute/ -run XXX -fuzz FuzzSegmentDecode -fuzztime 5s

# Lookup-query fuzz smoke: five seconds of raw addr/prefix strings
# through regiond's /v1/lookup handler. Every query must answer 200,
# 400 or 404 without a panic, and every 200 must decode to the struct
# API's answer for the normalised query.
fuzz-lookup:
	$(GO) test ./cmd/regiond/ -run XXX -fuzz FuzzLookupQuery -fuzztime 5s

# Scheduler speedup: the quickstart campaign at 1 vs N workers.
bench-sched:
	$(GO) test ./internal/probesched/ -run XXX -bench BenchmarkParallelCampaign -benchtime 3x

# Campaign benchmarks, archived as JSON for before/after diffs (see
# EXPERIMENTS.md): the end-to-end campaign plus its collection and
# inference halves across the workers={1,2,4,8} grid, and the faulted
# campaign across the loss grid (benchjson archives the loss rate).
bench:
	( $(GO) test ./internal/netsim/ -run XXX -bench 'BenchmarkProbe' -benchmem ; \
	  $(GO) test ./internal/probesched/ -run XXX \
		-bench 'BenchmarkParallelCampaign|BenchmarkCampaignCollect|BenchmarkCampaignInfer|BenchmarkFaultedCampaign' \
		-benchmem -benchtime 3x ) \
		| $(GO) run ./cmd/benchjson > BENCH_PR5.json

# Allocation gate: rerun the campaign bench with -benchmem, archive the
# numbers, and fail if any benchmark's bytes_per_op regressed more than
# 10% against the previous PR's archive (benchjson -prev exits nonzero
# on regression). This is what keeps the memory-engine wins from
# quietly eroding. Writes its own archive (BENCH_MEM.json) so it never
# clobbers the full `make bench` archive.
bench-mem:
	$(GO) test ./internal/probesched/ -run XXX \
		-bench 'BenchmarkParallelCampaign' -benchmem -benchtime 3x \
		| $(GO) run ./cmd/benchjson -prev BENCH_PR4.json > BENCH_MEM.json

# Per-benchmark time/bytes/allocs comparison of the current archive
# over the previous PR's.
bench-diff:
	$(GO) run ./cmd/benchjson -diff BENCH_PR4.json BENCH_PR5.json

# Resident-service bench: the regiond load generator hammers the
# snapshot store from 10k concurrent clients while three background
# refreshes swap the artifact, and benchjson archives the per-op
# mean/p50/p99 latencies and throughput (the p50_ns/p99_ns/qps pairs
# land in each entry's extra-metrics map) as BENCH_PR6.json. The race
# half of the same guarantee — no torn snapshot is ever observable —
# runs under `make race` via internal/snapshot's swap test.
serve-bench:
	$(GO) run ./cmd/regiond -loadgen -clients 10000 -duration 2s -swaps 3 \
		| $(GO) run ./cmd/benchjson > BENCH_PR6.json

# CPU+heap profiles of a full campaign run, ready for `go tool pprof`.
profile:
	$(GO) run ./cmd/regionmap -cpuprofile cpu.out -memprofile mem.out > /dev/null
	@echo "wrote cpu.out and mem.out; inspect with: $(GO) tool pprof cpu.out"

# Remove run artifacts: profiles, stray spill directories left by
# interrupted windowed runs (a clean exit removes its own), crash-smoke
# scratch dirs a failed -kill-after run leaves for inspection, and
# orphaned manifest temp files from a crash mid-publish.
clean:
	rm -rf .spill-* .crash-* cpu.out mem.out
	find . -name '*.manifest.tmp' -delete
