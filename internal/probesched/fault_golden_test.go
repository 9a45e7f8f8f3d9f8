package probesched_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comap"
	"repro/internal/netsim"
	"repro/internal/probesched"
)

// faultedDigests runs the quickstart campaign with the given fault plan
// and resilience policy installed, returning the three stage digests
// plus the pipeline result for outcome-accounting assertions.
func faultedDigests(t *testing.T, workers int, plan netsim.FaultPlan, r probesched.Resilience) (campaign, alias, graph [32]byte, res *comap.Result) {
	t.Helper()
	c := quickstartCampaign(workers)
	c.Net.SetFaultPlan(plan)
	c.Resilience = r
	res = comap.Run(c)

	var report strings.Builder
	if err := res.WriteJSON(&report, "comcast"); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var b strings.Builder
	b.WriteString(serializeCollection(res.Collection))
	b.WriteString(report.String())
	fmt.Fprintf(&b, "clock %v\n", c.Clock.Now().UnixNano())
	campaign = sha256.Sum256([]byte(b.String()))
	alias = sha256.Sum256([]byte(serializeAliases(res.Collection)))
	graph = sha256.Sum256([]byte(report.String()))
	return campaign, alias, graph, res
}

// TestZeroFaultPlanMatchesGoldenDigest is the zero-fault equivalence
// oracle: installing the empty FaultPlan (with zero Resilience) must
// leave the campaign, alias, and region-graph digests bit-identical to
// the PR3 pinned goldens across the GOMAXPROCS × worker grid — the
// fault layer may not perturb a single byte until faults are actually
// configured.
func TestZeroFaultPlanMatchesGoldenDigest(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	procsGrid := []int{1, 4}
	workersGrid := []int{1, 4, 8}
	if testing.Short() {
		procsGrid = []int{prev}
		workersGrid = []int{1, 4}
	}
	for _, procs := range procsGrid {
		runtime.GOMAXPROCS(procs)
		for _, workers := range workersGrid {
			campaign, alias, graph, res := faultedDigests(t, workers, netsim.FaultPlan{}, probesched.Resilience{})
			if got := hex.EncodeToString(campaign[:]); got != goldenCampaignDigest {
				t.Errorf("GOMAXPROCS=%d workers=%d: empty plan drifted campaign digest %s from golden %s",
					procs, workers, got, goldenCampaignDigest)
			}
			if got := hex.EncodeToString(alias[:]); got != goldenAliasDigest {
				t.Errorf("GOMAXPROCS=%d workers=%d: empty plan drifted alias digest %s from golden %s",
					procs, workers, got, goldenAliasDigest)
			}
			if got := hex.EncodeToString(graph[:]); got != goldenRegionGraphDigest {
				t.Errorf("GOMAXPROCS=%d workers=%d: empty plan drifted region-graph digest %s from golden %s",
					procs, workers, got, goldenRegionGraphDigest)
			}
			// The new accounting must hold even on a perfect plane.
			if !res.Coverage.Probes.Consistent() {
				t.Errorf("GOMAXPROCS=%d workers=%d: inconsistent probe ledger %+v",
					procs, workers, res.Coverage.Probes)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	runtime.GOMAXPROCS(prev)
}

// The faulted campaign's digests, pinned so that a change to the
// fault-path hashing (loss keys, rate-limit windows, VP churn) fails
// the grid below even when every worker count drifts the same way.
const (
	goldenFaultedCampaignDigest = "b95d0f0cc04abf9e81ce47fe3a759f8ef95ed51b74df38fb29054bef6b525768"
	goldenFaultedAliasDigest    = "d965a2533827dfd1c5f6f573fe8915cc871d037358ae13b9ce91be2c2f37b8c8"
	goldenFaultedGraphDigest    = "4108ba0a08f32c54e9263570725ced80462d492e651091a153a06ac5046cab18"
)

// TestFaultedCampaignDeterministicAcrossWorkers is the acceptance grid:
// with 10% link loss plus windowed ICMP rate limiting and a retrying,
// breaker-guarded campaign, the whole run must complete, account for
// every probe, and produce the pinned digests at workers {1,4,8}.
func TestFaultedCampaignDeterministicAcrossWorkers(t *testing.T) {
	plan := netsim.FaultPlan{
		Seed:       7,
		LinkLoss:   0.10,
		ICMPRate:   2,
		ICMPWindow: 250 * time.Millisecond,
	}
	policy := probesched.Resilience{
		Attempts:         3,
		RetryBackoff:     200 * time.Millisecond,
		BreakerThreshold: 8,
	}
	workersGrid := []int{1, 4, 8}
	if testing.Short() {
		workersGrid = []int{1, 4}
	}
	type run struct {
		campaign, alias, graph [32]byte
		stats                  probesched.ProbeStats
	}
	var first run
	for i, workers := range workersGrid {
		campaign, alias, graph, res := faultedDigests(t, workers, plan, policy)
		stats := res.Coverage.Probes
		if !stats.Consistent() {
			t.Fatalf("workers=%d: sent=%d != replied=%d + lost=%d + rate-limited=%d",
				workers, stats.Sent, stats.Replied, stats.Lost, stats.RateLimited)
		}
		if stats.Sent == 0 || stats.Lost == 0 || stats.Retries == 0 {
			t.Fatalf("workers=%d: degenerate faulted ledger %+v", workers, stats)
		}
		if len(res.Inference.Regions) == 0 {
			t.Fatalf("workers=%d: faulted campaign inferred no regions", workers)
		}
		for _, d := range []struct {
			name string
			got  [32]byte
			want string
		}{
			{"campaign", campaign, goldenFaultedCampaignDigest},
			{"alias", alias, goldenFaultedAliasDigest},
			{"graph", graph, goldenFaultedGraphDigest},
		} {
			if got := hex.EncodeToString(d.got[:]); got != d.want {
				t.Errorf("workers=%d: faulted %s digest %s differs from golden %s", workers, d.name, got, d.want)
			}
		}
		cur := run{campaign, alias, graph, stats}
		if i == 0 {
			first = cur
			continue
		}
		if cur != first {
			t.Errorf("workers=%d: faulted run diverged from workers=%d\n campaign %x vs %x\n alias %x vs %x\n graph %x vs %x\n stats %+v vs %+v",
				workers, workersGrid[0],
				cur.campaign, first.campaign, cur.alias, first.alias, cur.graph, first.graph,
				cur.stats, first.stats)
		}
	}
}
