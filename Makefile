# Verification entry points. `make verify` is the tier-1 gate: gofmt,
# vet, build, full test suite, the benchmark module's vet and short
# tests (perfbench), then the race detector over the packages
# with concurrency (the probe scheduler, the thread-safe simulator, and
# the campaign that drives them in parallel), the fault-plane gates
# (fast-path equivalence, zero-fault golden equivalence, and the
# graceful-degradation chaos sweep), the crash-safety gate (the
# kill/resume grid plus the chaossweep -kill-after smoke), the
# supervised-daemon race gate (race-regiond), the FIB differential gate
# (fib-diff) and the decoder fuzz smokes. The scale gate is a plain test
# inside `make test`: internal/core's TestCountedWorkScales runs the
# comcast campaign resident and windowed at 1x, 3x and 10x and fails
# when a deterministic work counter grows faster than 1.2x the topology
# or a windowed run retains too much of what the resident run retains.
# Wall time is judged by the repo benchmark (perfbench/, BENCHMARK.json).

GO ?= go

.PHONY: verify build test fmt vet perfbench race race-infer race-regiond equivalence chaos crash fib-diff fuzz-seg fuzz-lookup profile clean

verify: fmt vet build test perfbench race race-infer race-regiond equivalence chaos crash fib-diff fuzz-seg fuzz-lookup

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
		-run 'MapFold|Reduce|Deterministic|GoldenDigest|NodeAddrsSorted|ConcurrentLookupsOnCompacted' \
		./internal/probesched/ ./internal/comap/ ./internal/core/ ./internal/alias/ ./internal/mobilemap/ ./internal/dnsdb/

# Probe fast-path equivalence: the campaign digest must match the
# golden captured before the fast path (LPM FIB + compiled flows)
# landed, across a GOMAXPROCS x workers grid. The zero-fault-plan test
# extends the same guarantee to the fault layer: an installed-but-empty
# FaultPlan may not move a byte. The netsim tests pin the fast path's
# allocations (a compiled flow's probe allocates nothing, a compile one
# object) and the comap test holds the packed-key MPLS false-pair pass
# to its [2]netip.Addr reference. The snapshot tests hold regiond's
# pre-encoded answers byte-identical to json.Encoder over the struct
# API and pin their per-request allocations. The AddrID tests hold the
# archive's interned address IDs to first-seen fold order: the same ID
# table and per-path ID sequences at every worker count and window
# size, and after a durable kill-and-resume. The routing reference
# tests hold the flat shortest-path trees, the predecessor walk and the
# egress-set MPLS pass to the incremental implementations they
# replaced, and the ping test pins a ping series' allocations whatever
# its length. The lookup reference tests hold a flow family to the
# one-shot compile (and pin its walk at zero allocations), silent traces
# to the probing loop they skip, the banded nearest-city index to the
# city scan, and the per-attach region ranking to the insertion sort.
equivalence:
	$(GO) test ./internal/probesched/ ./internal/netsim/ ./internal/comap/ ./internal/snapshot/ ./internal/ping/ ./internal/traceroute/ ./internal/geo/ ./internal/topogen/ -count=1 \
		-run 'TestFastPathMatchesGoldenDigest|TestZeroFaultPlanMatchesGoldenDigest|TestFlowProbeAllocatesNothing|TestCompileFlowAllocs|TestFindFalsePairsMatchesReference|TestServedAnswersMatchEncoder|TestServedAnswerAllocs|TestAddrIDsStableAcrossWorkersAndWindows|TestArchiveInternsFirstSeen|TestSegmentWriterMatchesInterningReference|TestCompileFlowIntoAllocatesNothing|TestShortestPathsMatchReference|TestRouterPathMatchesReference|TestVisiblePathMatchesReference|TestPingAllocs|TestFlowFamilyMatchesCompileFlowInto|TestFlowFamilyWalkAllocatesNothing|TestSilentTraceMatchesProbingLoop|TestNearestIndexMatchesScan|TestNearestIndexTieBreak|TestRankRegionsMatchesInsertionSort'

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
# last window seal, inside a torn checkpoint record, and at a checkpoint
# record's fsync — across window sizes and worker counts — then resumes
# over the surviving spill directory with a cold simulator and requires
# bit-identical golden digests. The cancellation tests stop a durable
# campaign mid-collection (it must return context.Canceled, keep its log
# and resume onto the goldens) and a non-durable one (it must remove its
# spill); the crash-error test requires an injected crash to come back
# from RunContext as an error wrapping segfault.ErrCrash, writer closed.
# The traceroute tests pin the recovery scan's classification of damaged
# windows and checkpoint records (including a decode-and-recover fuzz
# corpus), and the segfault tests pin the injected-fault filesystem's
# crash model itself. The chaossweep smoke exercises the same guarantee
# through the real CLI binary.
crash:
	$(GO) test ./internal/probesched/ -count=1 \
		-run 'TestDurableCampaignMatchesGoldenDigest|TestDurableKillAndResumeGrid|TestDurableCompleteReplayMatchesGolden|TestDurableCancelMidCollectionResumes|TestWindowedCancelRemovesSpill|TestDurableCrashReturnsErrCrash'
	$(GO) test ./internal/traceroute/ ./internal/segfault/ -count=1
	$(GO) run ./cmd/chaossweep -kill-after 40 -trace-window 16

# FIB differential gate: the compiled prefix-set trie that now serves
# route resolution must answer every lookup identically to the retained
# masked-prefix reference index, across randomized prefix sets (seeded,
# so failures reproduce) and the full simulator integration path.
fib-diff:
	$(GO) test ./internal/netsim/ -run 'TestTrieFIBMatchesMaskedReference|TestTrieFIBNetworkIntegration|FuzzTrieFIBDifferential' -count=1

# Segment-decoder fuzz smoke: five seconds of coverage-guided mutation
# over the spill-log frames. Both decoders must reject arbitrary
# corruption with their named errors, never a panic or an OOM-sized
# allocation, and must agree on every input: Next and NextSyms both
# accept it or both fail. Durable recovery over the same bytes must
# never panic and keep only windows that decode; the seed corpus covers
# truncation, CRC damage, count inflation, and durable logs with
# checkpoint records.
fuzz-seg:
	$(GO) test ./internal/traceroute/ -run XXX -fuzz FuzzSegmentDecode -fuzztime 5s

# Lookup-query fuzz smoke: five seconds of raw addr/prefix strings
# through regiond's /v1/lookup handler. Every query must answer 200,
# 400 or 404 without a panic, and every 200 must decode to the struct
# API's answer for the normalised query.
fuzz-lookup:
	$(GO) test ./cmd/regiond/ -run XXX -fuzz FuzzLookupQuery -fuzztime 5s

# CPU+heap profiles of a full campaign run, ready for `go tool pprof`.
profile:
	$(GO) run ./cmd/regionmap -cpuprofile cpu.out -memprofile mem.out > /dev/null
	@echo "wrote cpu.out and mem.out; inspect with: $(GO) tool pprof cpu.out"

# Remove run artifacts: profiles, stray spill directories left by
# interrupted windowed runs (a clean exit removes its own), and
# crash-smoke scratch dirs a failed -kill-after run leaves for
# inspection.
clean:
	rm -rf .spill-* .crash-* cpu.out mem.out
