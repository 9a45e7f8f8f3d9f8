// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation. Each benchmark prints the measured rows
// next to the paper's numbers; absolute values come from the simulated
// substrate, so the claim under reproduction is the shape (who wins, by
// roughly what factor, where the crossovers fall).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudlat"
	"repro/internal/comap"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobilemap"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// Study fixtures are built once and shared; building them IS the
// measurement campaign, so the per-bench measured body is the analysis
// step that regenerates the artifact.
var (
	cableOnce sync.Once
	cableSt   *core.CableStudy

	attOnce sync.Once
	attSt   *core.ATTStudy

	mobileOnce sync.Once
	mobileSt   *core.MobileStudy
)

func cableStudy() *core.CableStudy {
	cableOnce.Do(func() {
		cableSt = core.NewCableStudy(7)
		cableSt.Result("comcast")
		cableSt.Result("charter")
	})
	return cableSt
}

func attStudy() *core.ATTStudy {
	attOnce.Do(func() {
		attSt = core.NewATTStudy(21)
		attSt.Result()
	})
	return attSt
}

func mobileStudy() *core.MobileStudy {
	mobileOnce.Do(func() {
		mobileSt = core.NewMobileStudy(51)
		for _, c := range core.CarrierNames {
			mobileSt.Analysis(c)
		}
	})
	return mobileSt
}

// BenchmarkTable1_AggregationTypes regenerates Table 1: regional
// aggregation archetypes per operator.
// Paper: Comcast 5 single / 11 two / 12 multi; Charter 0 / 0 / 6.
func BenchmarkTable1_AggregationTypes(b *testing.B) {
	st := cableStudy()
	var tbl map[string]map[comap.AggType]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl = st.Table1()
	}
	b.StopTimer()
	for _, isp := range []string{"comcast", "charter"} {
		fmt.Printf("# Table1 %-8s single=%d two=%d multi=%d (paper: comcast 5/11/12, charter 0/0/6)\n",
			isp, tbl[isp][comap.AggSingle], tbl[isp][comap.AggTwo], tbl[isp][comap.AggMulti])
	}
}

// BenchmarkFigure7_RegionSizeCDF regenerates Fig. 7: CDFs of COs and
// AggCOs per region. Paper: Charter regions are several times larger.
func BenchmarkFigure7_RegionSizeCDF(b *testing.B) {
	st := cableStudy()
	var cos, aggs map[string][]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cos, aggs = st.Figure7()
	}
	b.StopTimer()
	for _, isp := range []string{"comcast", "charter"} {
		c := newCDF(cos[isp])
		a := newCDF(aggs[isp])
		fmt.Printf("# Fig7 %-8s COs/region min=%.0f med=%.0f max=%.0f | AggCOs/region med=%.0f max=%.0f\n",
			isp, c.Min(), c.Median(), c.Max(), a.Median(), a.Max())
	}
	fmt.Printf("# Fig7 paper: comcast max ~100 COs and ~10 AggCOs; charter max ~240 COs and ~30 AggCOs\n")
}

// BenchmarkTable3_MappingRefinement regenerates Table 3: how alias
// resolution and point-to-point subnets refined the IP-to-CO mapping.
// Paper: alias changed 2.35%/1.10%, added 2.76%/0.80%, removed
// 0.86%/0.20%; subnets changed 0.04%/0.05%, added 1.27%/0.48%.
func BenchmarkTable3_MappingRefinement(b *testing.B) {
	st := cableStudy()
	b.ResetTimer()
	var stats comap.MappingStats
	for i := 0; i < b.N; i++ {
		stats = st.Table3("comcast")
	}
	b.StopTimer()
	for _, isp := range []string{"comcast", "charter"} {
		s := st.Table3(isp)
		base := float64(s.Initial)
		fmt.Printf("# Table3 %-8s initial=%d alias: changed=%.2f%% added=%.2f%% removed=%.2f%% | subnet: changed=%.2f%% added=%.2f%% | final=%d\n",
			isp, s.Initial,
			100*float64(s.AliasChanged)/base, 100*float64(s.AliasAdded)/base, 100*float64(s.AliasRemoved)/base,
			100*float64(s.SubnetChanged)/base, 100*float64(s.SubnetAdded)/base, s.Final)
	}
	_ = stats
}

// BenchmarkTable4_AdjacencyPruning regenerates Table 4: adjacency
// pruning by category. Paper: backbone 26.07%/11.67% of IP adjacencies,
// cross-region 18.78%/2.37% of CO adjacencies (Comcast loses more to
// stale rDNS), single-trace ~1%.
func BenchmarkTable4_AdjacencyPruning(b *testing.B) {
	st := cableStudy()
	var p comap.PruneStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = st.Table4("comcast")
	}
	b.StopTimer()
	for _, isp := range []string{"comcast", "charter"} {
		s := st.Table4(isp)
		fmt.Printf("# Table4 %-8s IPadj=%d COadj=%d | backbone %.2f%%/%.2f%% | cross-region %.2f%%/%.2f%% | single %.2f%%/%.2f%% | mpls CO removed=%d\n",
			isp, s.InitialIPAdjs, s.InitialCOAdjs,
			100*float64(s.BackboneIPAdjs)/float64(s.InitialIPAdjs), 100*float64(s.BackboneCOAdjs)/float64(s.InitialCOAdjs),
			100*float64(s.CrossRegionIPAdjs)/float64(s.InitialIPAdjs), 100*float64(s.CrossRegionCOAdjs)/float64(s.InitialCOAdjs),
			100*float64(s.SingleIPAdjs)/float64(s.InitialIPAdjs), 100*float64(s.SingleCOAdjs)/float64(s.InitialCOAdjs),
			s.MPLSCOAdjs)
	}
	_ = p
}

// BenchmarkSection51_DirectTargeting quantifies §5.1's claim that
// rDNS-targeted traceroutes reveal several times more CO
// interconnections than the /24 sweep (paper: 5.3x Comcast, 2.6x
// Charter).
func BenchmarkSection51_DirectTargeting(b *testing.B) {
	st := cableStudy()
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gain = st.DirectTargetingGain("comcast")
	}
	b.StopTimer()
	b.ReportMetric(gain, "x-gain-comcast")
	for _, isp := range []string{"comcast", "charter"} {
		fmt.Printf("# §5.1 %-8s direct-targeting gain = %.1fx (paper: comcast 5.3x, charter 2.6x)\n",
			isp, st.DirectTargetingGain(isp))
	}
}

// BenchmarkSection525_EntryPoints regenerates the §5.2.5 entry-point
// findings. Paper: 57 Comcast backbone entries, all but three regions
// with >= 2; Central California also enters via San Francisco; no
// Charter inter-region entries.
func BenchmarkSection525_EntryPoints(b *testing.B) {
	st := cableStudy()
	var e core.EntrySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = st.Entries("comcast")
	}
	b.StopTimer()
	cha := st.Entries("charter")
	fmt.Printf("# §5.2.5 comcast backbone-entry pairs=%d regions<2=%d inter-region pairs=%d (paper: 57, 3, >=2 real feeders)\n",
		e.BackboneEntryPairs, e.RegionsUnderTwo, e.InterRegionPairs)
	fmt.Printf("# §5.2.5 charter  backbone-entry pairs=%d inter-region=%d (paper: all regions >=2, 0 inter-region)\n",
		cha.BackboneEntryPairs, cha.InterRegionEntries)
}

// BenchmarkSectionB4_Redundancy regenerates Appendix B.4. Paper: 11.4%
// of Comcast vs 37.7% of Charter EdgeCOs have one upstream (29.0%
// excluding the southeast); 33.7%/42.2% of those hang off another
// EdgeCO; 7.7x EdgeCOs per AggCO overall.
func BenchmarkSectionB4_Redundancy(b *testing.B) {
	st := cableStudy()
	var com core.Redundancy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		com = st.RedundancyStats("comcast")
	}
	b.StopTimer()
	cha := st.RedundancyStats("charter")
	exSE := st.RedundancyStats("charter", "southeast")
	fmt.Printf("# B.4 comcast single-upstream=%.1f%% via-edge=%.1f%% (paper 11.4%% / 33.7%%)\n",
		100*com.SingleUpstreamFrac, 100*com.SingleViaEdgeFrac)
	fmt.Printf("# B.4 charter single-upstream=%.1f%% via-edge=%.1f%% exSE=%.1f%% (paper 37.7%% / 42.2%% / 29.0%%)\n",
		100*cha.SingleUpstreamFrac, 100*cha.SingleViaEdgeFrac, 100*exSE.SingleUpstreamFrac)
	ratio := float64(com.EdgeCOs+cha.EdgeCOs) / float64(com.AggCOs+cha.AggCOs)
	fmt.Printf("# §5.5 EdgeCO:AggCO ratio = %.1fx (paper 7.7x)\n", ratio)
	b.ReportMetric(ratio, "edge-per-agg")
}

// BenchmarkFigure9_NortheastRTT regenerates Fig. 9: median minimum RTT
// from each cloud's closest region to MA/CT/NH/VT EdgeCOs. Paper:
// Connecticut is worst from all three clouds (~3.5-4 ms penalty)
// despite being geographically closest.
func BenchmarkFigure9_NortheastRTT(b *testing.B) {
	st := cableStudy()
	var rows []cloudlat.Fig9Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = st.Figure9(30)
	}
	b.StopTimer()
	for _, r := range rows {
		fmt.Printf("# Fig9 %-7s %-10s %s median=%.1fms (n=%d)\n", r.Provider, r.Region, r.State, r.MedianMs, r.Targets)
	}
	fmt.Printf("# Fig9 paper: CT 16-20ms > MA/NH/VT 11-16ms from every cloud\n")
}

// BenchmarkFigure10_LatencyCDF regenerates Fig. 10. Paper: >80% of
// EdgeCOs are beyond 5 ms RTT of the nearest cloud VM, yet >80% are
// within 5 ms of their AggCO.
func BenchmarkFigure10_LatencyCDF(b *testing.B) {
	st := cableStudy()
	var fig = st.Figure10(20, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = st.Figure10(20, 400)
	}
	b.StopTimer()
	pts := []float64{5, 10, 15, 20, 25, 30, 40, 55}
	fmt.Printf("# Fig10a cloud->edge CDF: %s\n", fig.CloudToEdge.Series(pts))
	fmt.Printf("# Fig10b agg->edge   CDF: %s\n", fig.AggToEdge.Series(pts))
	fmt.Printf("# Fig10 paper: cloud->edge at 5ms < 0.2; agg->edge at 5ms > 0.8\n")
	b.ReportMetric(fig.AggToEdge.At(5), "agg-within-5ms")
	b.ReportMetric(fig.CloudToEdge.At(5), "cloud-within-5ms")
}

// BenchmarkFigure13_ATTSanDiego regenerates Fig. 13: the AT&T San Diego
// router- and CO-level topology. Paper: 2 backbone routers, 4 agg
// routers, 84 EdgeCO routers forming 42 dual-router EdgeCOs, one
// BackboneCO with a full mesh to the aggregation layer.
func BenchmarkFigure13_ATTSanDiego(b *testing.B) {
	st := attStudy()
	var fig core.Fig13Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = st.Figure13()
	}
	b.StopTimer()
	fmt.Printf("# Fig13 bb-routers=%d agg-routers=%d edge-routers=%d edgeCOs=%d (2-router=%d, dual-agg=%d) bbCOs=%d mesh=%v\n",
		fig.BackboneRouters, fig.AggRouters, fig.EdgeRouters, fig.EdgeCOs,
		fig.TwoRouterEdges, fig.DualHomedEdges, fig.BackboneCOs, fig.FullMesh)
	fmt.Printf("# Fig13 paper: 2 / 4 / 84 routers; 42 EdgeCOs; 1 BackboneCO, full mesh\n")
}

// BenchmarkTable2_ATTEdgeLatency regenerates Table 2: minimum RTT from
// a Los Angeles cloud VM to San Diego EdgeCO devices. Paper: 3-10 ms
// with a 4.3 ms average and two distant offices above 2x.
func BenchmarkTable2_ATTEdgeLatency(b *testing.B) {
	st := attStudy()
	var outliers int
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outliers, mean = st.LatencyOutliers(50)
	}
	b.StopTimer()
	fmt.Printf("# Table2 histogram: %s\n", st.Table2(50))
	fmt.Printf("# Table2 mean=%.1fms outliers>2x=%d (paper: 4.3ms avg, 2 outliers at 9-10ms)\n", mean, outliers)
	b.ReportMetric(mean, "mean-ms")
}

// BenchmarkTable56_DPRPrefixes regenerates Tables 5 and 6: DPR reveals
// the MPLS-hidden agg layer and the CO router /24 inventory. Paper: 6
// EdgeCO /24s and 1 AggCO /24 in San Diego.
func BenchmarkTable56_DPRPrefixes(b *testing.B) {
	st := attStudy()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		edge, agg := st.Table6()
		n = len(edge) + len(agg)
	}
	b.StopTimer()
	edge, agg := st.Table6()
	fmt.Printf("# Table6 edge /24s (%d):", len(edge))
	for _, p := range edge {
		fmt.Printf(" %s", p)
	}
	fmt.Printf("\n# Table6 agg /24s (%d):", len(agg))
	for _, p := range agg {
		fmt.Printf(" %s", p)
	}
	fmt.Printf("\n# Table6 paper: 6 edge /24s + 1 agg /24\n")
	_ = n
}

// BenchmarkSection61_McTraceroute regenerates §6.1's vantage-point
// comparison. Paper: the 10 Atlas/Ark probes revealed only half the IP
// paths the 23 restaurant hotspots revealed.
func BenchmarkSection61_McTraceroute(b *testing.B) {
	st := attStudy()
	var ark, mc int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ark, mc = st.McComparison()
	}
	b.StopTimer()
	fmt.Printf("# §6.1 ark/atlas paths=%d mctraceroute paths=%d ratio=%.2f (paper ~0.5)\n",
		ark, mc, float64(ark)/float64(mc))
	b.ReportMetric(float64(ark)/float64(mc), "ark-to-mc-ratio")
}

// BenchmarkFigure14_Energy regenerates Fig. 14: per-round energy of
// stock versus ShipTraceroute scamper. Paper: 8.6 -> 5.3 mAh (38%
// saving), ~12 days of hourly rounds on one charge.
func BenchmarkFigure14_Energy(b *testing.B) {
	st := mobileStudy()
	var rows []core.Fig14Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = st.Figure14()
	}
	b.StopTimer()
	for _, r := range rows {
		fmt.Printf("# Fig14 %-28s active=%v energy=%.1fmAh battery=%.1f days\n",
			r.Mode, r.Active.Round(time.Second), r.EnergymAh, r.BatteryDays)
	}
	saving := 1 - rows[1].EnergymAh/rows[0].EnergymAh
	fmt.Printf("# Fig14 saving=%.0f%% (paper 38%%; paper battery ~12 days)\n", 100*saving)
	b.ReportMetric(100*saving, "%saving")
}

// BenchmarkFigure15_Coverage regenerates Fig. 15: 12 shipments cover
// 40 states; per-carrier round success 75-84%.
func BenchmarkFigure15_Coverage(b *testing.B) {
	st := mobileStudy()
	var states []string
	var rates map[string]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states, rates = st.Figure15()
	}
	b.StopTimer()
	fmt.Printf("# Fig15 states=%d (paper 40)\n", len(states))
	for _, c := range core.CarrierNames {
		fmt.Printf("# Fig15 %-10s success=%.0f%% (paper 75-84%%)\n", c, 100*rates[c])
	}
	b.ReportMetric(float64(len(states)), "states")
}

// BenchmarkFigure16_IPv6Fields regenerates Fig. 16: the inferred IPv6
// address fields per carrier.
func BenchmarkFigure16_IPv6Fields(b *testing.B) {
	st := mobileStudy()
	var a *mobilemap.Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = mobilemap.AnalyzeParallel(st.Rounds("att-mobile"), st.Scenario.DNS, 1)
	}
	b.StopTimer()
	_ = a
	for _, c := range core.CarrierNames {
		an := st.Analysis(c)
		fmt.Printf("# Fig16 %-10s user=/%d region=%v pgw=%v router-base=%v router-field=%v levels=%d\n",
			c, an.UserPrefixLen, an.RegionField, an.PGWField, an.RouterBase, an.RouterField, len(an.GeoLevels))
	}
	fmt.Printf("# Fig16 paper: att region bits 32-39 + pgw nibble; verizon region bits 24-39 + pgw 40-43, router 2001:4888 bits 64-75; tmobile pgw bits 32-39, no region\n")
}

// BenchmarkFigure17_MobileTopologies regenerates Fig. 17: the carrier
// architecture classification.
func BenchmarkFigure17_MobileTopologies(b *testing.B) {
	st := mobileStudy()
	var arch mobilemap.Arch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch = st.Analysis("tmobile").Arch
	}
	b.StopTimer()
	_ = arch
	for _, c := range core.CarrierNames {
		a := st.Analysis(c)
		fmt.Printf("# Fig17 %-10s arch=%-15s providers=%v\n", c, a.Arch, a.Providers)
	}
	fmt.Printf("# Fig17 paper: att single-edge, verizon multi-edge, tmobile multi-backbone\n")
}

// BenchmarkFigure18_LatencyMap regenerates Fig. 18: per-hex minimum RTT
// to a San Diego server. Paper: AT&T's interior (MT/ND) is darkest;
// Verizon and T-Mobile are lower overall.
func BenchmarkFigure18_LatencyMap(b *testing.B) {
	st := mobileStudy()
	var hexes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hexes = len(st.Figure18("att-mobile"))
	}
	b.StopTimer()
	for _, c := range core.CarrierNames {
		hx := st.Figure18(c)
		cdf := newCDFHex(hx)
		fmt.Printf("# Fig18 %-10s hexes=%d minRTT med=%.0fms p90=%.0fms max=%.0fms\n",
			c, len(hx), cdf.Median(), cdf.Quantile(0.9), cdf.Max())
	}
	fmt.Printf("# Fig18 paper: att darkest interior (up to ~200ms); verizon/tmobile lower\n")
	_ = hexes
}

// BenchmarkTable7_ATTPGWs regenerates Table 7: inferred PGW counts per
// AT&T mobile region.
func BenchmarkTable7_ATTPGWs(b *testing.B) {
	st := mobileStudy()
	var rows []core.PGWRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = st.PGWTable("att-mobile")
	}
	b.StopTimer()
	printPGWRows("Table7", rows)
}

// BenchmarkTable8_VerizonPGWs regenerates Table 8: inferred PGW counts
// per Verizon wireless region.
func BenchmarkTable8_VerizonPGWs(b *testing.B) {
	st := mobileStudy()
	var rows []core.PGWRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = st.PGWTable("verizon")
	}
	b.StopTimer()
	printPGWRows("Table8", rows)
}

func printPGWRows(label string, rows []core.PGWRow) {
	exact := 0
	fmt.Printf("# %s regions=%d:", label, len(rows))
	for _, r := range rows {
		fmt.Printf(" %s=%d/%d", r.Region, r.Inferred, r.Truth)
		if r.Inferred == r.Truth {
			exact++
		}
	}
	fmt.Printf("\n# %s exact matches: %d/%d visited regions\n", label, exact, len(rows))
}

// BenchmarkValidation_OperatorScore stands in for §5.4's operator
// interviews: precision/recall of the inferred CO graphs against the
// generator ground truth.
func BenchmarkValidation_OperatorScore(b *testing.B) {
	st := cableStudy()
	var f1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f1 = st.Score("comcast").MeanF1()
	}
	b.StopTimer()
	for _, isp := range []string{"comcast", "charter"} {
		sc := st.Score(isp)
		fmt.Printf("# Validation %-8s mean CO F1 = %.3f over %d regions\n", isp, sc.MeanF1(), len(sc.Regions))
	}
	b.ReportMetric(f1, "comcast-F1")
}

// --- Ablations: each disables one pipeline stage DESIGN.md calls out
// and reports the quality impact. ---

func ablationCampaign(st *core.CableStudy, mutate func(*comap.Campaign)) *comap.Result {
	c := &comap.Campaign{
		Net:       st.Scenario.Net,
		DNS:       st.Scenario.DNS,
		Clock:     vclock.New(st.Scenario.Epoch()),
		ISP:       "charter",
		VPs:       st.VPs,
		Announced: st.Charter.Announced,
	}
	mutate(c)
	return comap.Run(c)
}

// BenchmarkAblationNoMPLSPass disables the Vanaubel-style MPLS
// revelation; the false top-AggCO-to-EdgeCO edges of the MPLS region
// survive (the effect §5.1 reports for Maine).
func BenchmarkAblationNoMPLSPass(b *testing.B) {
	st := cableStudy()
	var with, without int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ablationCampaign(st, func(c *comap.Campaign) { c.SkipMPLSPass = true })
		without = len(res.Inference.Regions["maine"].Edges)
	}
	b.StopTimer()
	with = len(st.Result("charter").Inference.Regions["maine"].Edges)
	fmt.Printf("# Ablation no-MPLS: maine edges %d -> %d without the DPR pass (false tier1->edge links survive)\n", with, without)
	b.ReportMetric(float64(without-with), "extra-false-edges")
}

// BenchmarkAblationNoAlias disables alias resolution; unnamed and
// stale-named interfaces stay unmapped or wrong, shrinking the mapping
// (the Table 3 "added" rows vanish) and the edge set with it.
func BenchmarkAblationNoAlias(b *testing.B) {
	st := cableStudy()
	var mapped, edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ablationCampaign(st, func(c *comap.Campaign) { c.SkipAlias = true })
		mapped = res.Mapping.Stats.Final
		edges = totalEdges(res)
	}
	b.StopTimer()
	baseMapped := st.Result("charter").Mapping.Stats.Final
	baseEdges := totalEdges(st.Result("charter"))
	f1 := scoreResult(ablationCampaign(st, func(c *comap.Campaign) { c.SkipAlias = true }), st.Charter)
	fmt.Printf("# Ablation no-alias: charter mapped addrs %d -> %d, edges %d -> %d, F1 %.3f -> %.3f\n",
		baseMapped, mapped, baseEdges, edges, st.Score("charter").MeanF1(), f1)
	b.ReportMetric(float64(baseMapped-mapped), "mappings-lost")
}

// BenchmarkAblationNoDirectTargeting keeps only the /24 sweep; CO
// interconnection coverage collapses (the 2.6x of §5.1 in reverse).
func BenchmarkAblationNoDirectTargeting(b *testing.B) {
	st := cableStudy()
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ablationCampaign(st, func(c *comap.Campaign) { c.SkipDirectTargeting = true })
		edges = totalEdges(res)
	}
	b.StopTimer()
	base := totalEdges(st.Result("charter"))
	fmt.Printf("# Ablation sweep-only: charter CO edges %d -> %d\n", base, edges)
	b.ReportMetric(float64(base-edges), "edges-lost")
}

func scoreResult(res *comap.Result, truth *topogen.ISP) float64 {
	var sum float64
	n := 0
	for name, g := range res.Inference.Regions {
		treg := truth.Regions[name]
		if treg == nil {
			continue
		}
		sum += scoreRegionF1(g, treg)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func scoreRegionF1(g *comap.RegionGraph, truth *topogen.Region) float64 {
	inferred := map[string]bool{}
	for _, node := range g.COs {
		inferred[node.Tag] = true
	}
	truthTags := map[string]bool{}
	for _, co := range truth.COs {
		truthTags[co.Tag] = true
	}
	tp, fp, fn := 0, 0, 0
	for t := range inferred {
		if truthTags[t] {
			tp++
		} else {
			fp++
		}
	}
	for t := range truthTags {
		if !inferred[t] {
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

func totalEdges(res *comap.Result) int {
	n := 0
	for _, g := range res.Inference.Regions {
		n += len(g.Edges)
	}
	return n
}

// newCDF avoids importing metrics into the bench namespace twice.
func newCDF(xs []float64) *cdf { return &cdf{xs: sortedCopy(xs)} }

type cdf struct{ xs []float64 }

func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

func (c *cdf) Min() float64    { return c.xs[0] }
func (c *cdf) Max() float64    { return c.xs[len(c.xs)-1] }
func (c *cdf) Median() float64 { return c.xs[len(c.xs)/2] }
func (c *cdf) Quantile(q float64) float64 {
	i := int(q * float64(len(c.xs)-1))
	return c.xs[i]
}

func newCDFHex(hx []geo.HexValue) *cdf {
	var vals []float64
	for _, h := range hx {
		vals = append(vals, h.Value)
	}
	return newCDF(vals)
}

// --- §8 extensions: the paper's future-work directions, implemented. ---

// BenchmarkSection8_Resilience runs the failure-impact analysis over
// every inferred Comcast region: which offices are single points of
// failure (the Nashville scenario) and which regions survive entry
// loss.
func BenchmarkSection8_Resilience(b *testing.B) {
	st := cableStudy()
	var reports int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = len(st.Resilience("comcast"))
	}
	b.StopTimer()
	survivable, spofs := 0, 0
	var worstFrac float64
	for _, rep := range st.Resilience("comcast") {
		if rep.EntryLossSurvivable() {
			survivable++
		}
		spofs += len(rep.SinglePointsOfFailure)
		if w, ok := rep.WorstCO(); ok && w.Frac() > worstFrac {
			worstFrac = w.Frac()
		}
	}
	fmt.Printf("# §8 resilience: %d/%d comcast regions survive any single entry loss; %d SPOF elements; worst CO failure strands %.0f%%\n",
		survivable, reports, spofs, 100*worstFrac)
	b.ReportMetric(float64(survivable), "survivable-regions")
}

// BenchmarkSection8_EdgePlacement solves the §5.5/§8 placement problem:
// cover 80% of EdgeCOs within 5 ms using greedy AggCO selection.
func BenchmarkSection8_EdgePlacement(b *testing.B) {
	st := cableStudy()
	var hosts, covered, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := st.EdgePlacement(5, 0.8, 8, 400)
		hosts, covered, total = len(cmp.AggPlacement.Hosts), cmp.AggPlacement.Covered, cmp.AggPlacement.Total
	}
	b.StopTimer()
	fmt.Printf("# §8 edge placement: %d AggCO hosts cover %d/%d EdgeCOs within 5ms (vs %d EdgeCO deployments)\n",
		hosts, covered, total, total)
	b.ReportMetric(float64(total)/float64(hosts), "edges-per-host")
}

// BenchmarkAblationPauseAtRest quantifies the §8 accelerometer-pause
// tradeoff: journey energy saved versus stationary re-registration
// samples (and hence Table 7 accuracy) lost.
func BenchmarkAblationPauseAtRest(b *testing.B) {
	st := mobileStudy()
	var r core.PauseAblationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = st.RunPauseAblation()
	}
	b.StopTimer()
	fmt.Printf("# §8 pause-at-rest: energy %.0f -> %.0f mAh (%.0f%% saved); rounds %d -> %d; PGW-exact regions %d -> %d of %d\n",
		r.NormalEnergymAh, r.PausedEnergymAh, 100*(1-r.PausedEnergymAh/r.NormalEnergymAh),
		r.NormalRounds, r.PausedRounds, r.NormalPGWExact, r.PausedPGWExact, r.Regions)
	b.ReportMetric(r.NormalEnergymAh-r.PausedEnergymAh, "mAh-saved")
}

// BenchmarkNoiseRobustness sweeps the stale-rDNS rate on a reduced
// two-region operator and reports CO-recovery F1 at each level — the
// paper's claim that the heuristics produce "surprisingly accurate maps
// in spite of considerable noise in our input signals".
func BenchmarkNoiseRobustness(b *testing.B) {
	levels := []float64{0.5, 1, 3, 6}
	run := func(mult float64) float64 {
		s := topogen.NewScenario(13)
		p := topogen.CharterProfile()
		p.StaleBothProb *= mult
		p.StaleSnapProb *= mult
		p.UnnamedProb *= mult
		if p.UnnamedProb > 0.5 {
			p.UnnamedProb = 0.5
		}
		p.Regions = p.Regions[:2] // socal + texas keep runtime bounded
		isp := s.BuildCable(p)
		vps := s.StandardVPs(isp)
		c := &comap.Campaign{
			Net: s.Net, DNS: s.DNS, Clock: vclock.New(s.Epoch()),
			ISP: "charter", VPs: vps, Announced: isp.Announced,
		}
		return scoreResult(comap.Run(c), isp)
	}
	var f1s []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f1s = f1s[:0]
		for _, mult := range levels {
			f1s = append(f1s, run(mult))
		}
	}
	b.StopTimer()
	base := topogen.CharterProfile()
	for i, mult := range levels {
		fmt.Printf("# noise x%.1f (stale %.1f%%+%.1f%%, unnamed %.0f%%): charter CO F1 = %.3f\n",
			mult, 100*base.StaleBothProb*mult, 100*base.StaleSnapProb*mult,
			100*minF(base.UnnamedProb*mult, 0.5), f1s[i])
	}
	b.ReportMetric(f1s[0]-f1s[len(f1s)-1], "F1-degradation")
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkSection1_BuildingRedundancy quantifies the §1 claim that
// hostnames reveal building locations and building-level redundancy:
// Charter's 8-character CLLI tags expose multi-building cities and dual
// AggCO buildings within metros.
func BenchmarkSection1_BuildingRedundancy(b *testing.B) {
	st := cableStudy()
	var multi, redundant, cities int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multi, redundant, cities = 0, 0, 0
		for _, g := range st.Result("charter").Inference.Regions {
			stats := comap.BuildingRedundancy(g)
			cities += stats.Cities
			multi += stats.MultiBuilding
			redundant += stats.RedundantAggCities
		}
	}
	b.StopTimer()
	fmt.Printf("# §1 buildings: %d CLLI cities, %d with multiple buildings, %d with dual AggCO buildings\n",
		cities, multi, redundant)
	b.ReportMetric(float64(multi), "multi-building-cities")
}

// BenchmarkVPSweep varies the vantage-point count on a reduced cable
// operator. The result is a counterpoint to §6.1: for operators with
// rDNS and open probing, direct interface targeting compensates for few
// VPs and coverage stays nearly flat — VP diversity only dominates when
// the operator blocks external targeting (AT&T), which is what made
// McTraceroute necessary there (see BenchmarkSection61_McTraceroute).
func BenchmarkVPSweep(b *testing.B) {
	counts := []int{4, 10, 20, 40}
	type point struct {
		vps   int
		edges int
		f1    float64
	}
	run := func(nVPs int) point {
		s := topogen.NewScenario(17)
		p := topogen.CharterProfile()
		p.Regions = p.Regions[:2]
		isp := s.BuildCable(p)
		all := s.StandardVPs(isp)
		vps := all
		if nVPs < len(all) {
			vps = all[:nVPs]
		}
		c := &comap.Campaign{
			Net: s.Net, DNS: s.DNS, Clock: vclock.New(s.Epoch()),
			ISP: "charter", VPs: vps, Announced: isp.Announced,
		}
		res := comap.Run(c)
		return point{vps: len(vps), edges: totalEdges(res), f1: scoreResult(res, isp)}
	}
	var pts []point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, n := range counts {
			pts = append(pts, run(n))
		}
	}
	b.StopTimer()
	for _, p := range pts {
		fmt.Printf("# VP sweep (cable): %2d VPs -> %d CO edges, CO F1 %.3f (flat: rDNS targeting compensates; contrast §6.1)\n", p.vps, p.edges, p.f1)
	}
	b.ReportMetric(float64(pts[len(pts)-1].edges-pts[0].edges), "edges-gained")
}
