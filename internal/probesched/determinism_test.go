package probesched_test

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/comap"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// quickstartCampaign builds the quickstart-scale single-region cable
// scenario and its campaign, ready to run.
func quickstartCampaign(workers int) *comap.Campaign {
	scenario := topogen.NewScenario(42)
	profile := topogen.ComcastProfile()
	profile.Regions = []topogen.CableRegionSpec{{
		Name:     "bverton",
		Anchor:   "Beaverton",
		Backbone: []string{"Seattle", "Sunnyvale"},
		Type:     topogen.DualAgg,
		EdgeCOs:  12,
	}}
	isp := scenario.BuildCable(profile)
	var vps []netip.Addr
	for _, city := range []string{"Seattle", "San Francisco", "Denver", "Chicago", "New York"} {
		vps = append(vps, scenario.AddTransitVP(city).Addr)
	}
	return &comap.Campaign{
		Net:         scenario.Net,
		DNS:         scenario.DNS,
		Clock:       vclock.New(scenario.Epoch()),
		ISP:         "comcast",
		Seed:        42,
		VPs:         vps,
		Announced:   isp.Announced,
		Parallelism: workers,
	}
}

// serializeCollection renders every field of a Collection in a canonical
// order, so two byte-identical collections serialize identically and any
// divergence (path order, hop content, alias evidence) changes the hash.
// Paths resolve their AddrIDs back to addresses, so the rendering (and
// every digest pinned over it) is independent of ID assignment.
func serializeCollection(col *comap.Collection) string {
	var b strings.Builder
	col.EachPath(func(_ int, p comap.Path, stage string) {
		fmt.Fprintf(&b, "path %s>%s stage=%s reached=%v hops=", col.Addr(p.Src), col.Addr(p.Dst), stage, p.Reached)
		for j, h := range p.Hops {
			fmt.Fprintf(&b, "%s/gap=%v,", col.Addr(h), p.Gaps[j])
		}
		b.WriteByte('\n')
	})
	observed := make([]string, 0, col.NumObserved())
	for _, a := range col.Observed() {
		observed = append(observed, a.String())
	}
	sort.Strings(observed)
	fmt.Fprintf(&b, "observed %s\n", strings.Join(observed, ","))
	for _, a := range col.ScanTargets {
		fmt.Fprintf(&b, "scan %s\n", a)
	}
	var pairs []string
	for _, p := range col.FalsePairs() {
		pairs = append(pairs, p[0].String()+">"+p[1].String())
	}
	sort.Strings(pairs)
	fmt.Fprintf(&b, "false %s\n", strings.Join(pairs, ","))
	pairs = pairs[:0]
	for _, p := range col.DirectPairs() {
		pairs = append(pairs, p[0].String()+">"+p[1].String())
	}
	sort.Strings(pairs)
	fmt.Fprintf(&b, "direct %s\n", strings.Join(pairs, ","))
	for _, a := range col.AliasTargets {
		fmt.Fprintf(&b, "aliastarget %s\n", a)
	}
	if col.Aliases != nil {
		for _, g := range col.Aliases.Groups() {
			fmt.Fprintf(&b, "aliasgroup %v\n", g)
		}
		fmt.Fprintf(&b, "evidence mercator=%d midar=%d\n", col.Aliases.MercatorPairs, col.Aliases.MIDARPairs)
	}
	return b.String()
}

// serializeAliases renders the alias-resolution evidence alone: every
// resolved group plus the per-technique pair counts.
func serializeAliases(col *comap.Collection) string {
	var b strings.Builder
	for _, a := range col.AliasTargets {
		fmt.Fprintf(&b, "aliastarget %s\n", a)
	}
	if col.Aliases != nil {
		for _, g := range col.Aliases.Groups() {
			fmt.Fprintf(&b, "aliasgroup %v\n", g)
		}
		fmt.Fprintf(&b, "evidence mercator=%d midar=%d\n", col.Aliases.MercatorPairs, col.Aliases.MIDARPairs)
	}
	return b.String()
}

// campaignDigest runs the full pipeline and hashes the serialized
// Collection together with the report JSON (the Table 1/3/4 content)
// and the final virtual-clock reading.
func campaignDigest(t *testing.T, workers int) [32]byte {
	t.Helper()
	d, _, _ := campaignDigests(t, workers)
	return d
}

// campaignDigests runs the full pipeline once and returns three hashes:
// the whole-campaign digest (collection + report + clock), the
// alias-resolution digest, and the region-graph (report JSON) digest.
// The narrower digests attribute a whole-campaign mismatch to the
// stage that drifted.
func campaignDigests(t *testing.T, workers int) (campaign, alias, graph [32]byte) {
	t.Helper()
	return digestsOf(t, quickstartCampaign(workers))
}

// digestsOf runs an already-configured campaign through the pipeline
// and hashes it — the windowed-engine goldens reuse it with TraceWindow
// set on the same quickstart campaign.
func digestsOf(t *testing.T, c *comap.Campaign) (campaign, alias, graph [32]byte) {
	t.Helper()
	res := comap.Run(c)
	defer res.Close()

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
	return campaign, alias, graph
}

// TestProbeBudgetCapsAndStaysDeterministic checks MaxTraces truncates
// the canonical job list identically at every worker count.
func TestProbeBudgetCapsAndStaysDeterministic(t *testing.T) {
	digest := func(workers int) ([32]byte, int) {
		c := quickstartCampaign(workers)
		c.MaxTraces = 60
		c.SkipAlias = true
		col := c.Run()
		if col.NumPaths() > 60 {
			t.Fatalf("workers=%d: %d paths exceed the 60-trace budget", workers, col.NumPaths())
		}
		return sha256.Sum256([]byte(serializeCollection(col))), col.NumPaths()
	}
	base, n := digest(1)
	if n == 0 {
		t.Fatal("budgeted campaign collected nothing")
	}
	for _, workers := range []int{4, 8} {
		if got, _ := digest(workers); got != base {
			t.Fatalf("workers=%d: budgeted collection diverges from sequential", workers)
		}
	}
}

// TestCampaignDeterministicAcrossParallelism is the PR's acceptance
// check: the quickstart cable campaign must produce byte-identical
// output — collection, inferred tables, and final virtual time — at
// GOMAXPROCS 1, 4, and 8 crossed with worker counts 1, 4, and 8.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; skipped with -short")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var want [32]byte
	first := true
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4, 8} {
			got := campaignDigest(t, workers)
			if first {
				want = got
				first = false
				continue
			}
			if got != want {
				t.Fatalf("GOMAXPROCS=%d workers=%d: digest %x differs from baseline %x",
					procs, workers, got, want)
			}
		}
	}
}
