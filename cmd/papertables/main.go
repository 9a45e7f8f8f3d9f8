// Command papertables regenerates every table and figure of the
// paper's evaluation in one run, printing measured values next to the
// paper's numbers. This is the non-benchmark form of the bench harness
// and the source of EXPERIMENTS.md.
//
// Usage:
//
//	papertables [-seed N] [-study cable|att|mobile|all]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/comap"
	"repro/internal/core"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 7, "scenario seed")
	study := flag.String("study", "all", "cable, att, mobile, or all")
	cfg.BindParallel(flag.CommandLine)
	flag.Parse()

	if *study == "all" || *study == "cable" {
		cable(cfg.Seed, &cfg)
	}
	if *study == "all" || *study == "att" {
		att(cfg.Seed*3, &cfg)
	}
	if *study == "all" || *study == "mobile" {
		mobile(cfg.Seed*7+2, &cfg)
	}
}

// launch builds the named study at a derived seed through the registry,
// sharing the sweep's option bridge.
func launch(name string, seed int64, cfg *cli.Config) core.Study {
	st, err := core.NewStudy(name, seed, cfg.Options()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "papertables:", err)
		os.Exit(2)
	}
	return st
}

func cable(seed int64, cfg *cli.Config) {
	fmt.Printf("=== cable study (§5), seed %d ===\n", seed)
	st := launch("cable", seed, cfg).(*core.CableStudy)
	st.Result("comcast")
	st.Result("charter")

	tbl := st.Table1()
	fmt.Println("\nTable 1 — aggregation types (paper: comcast 5/11/12, charter 0/0/6):")
	for _, isp := range []string{"comcast", "charter"} {
		fmt.Printf("  %-8s single=%d two=%d multi=%d\n",
			isp, tbl[isp][comap.AggSingle], tbl[isp][comap.AggTwo], tbl[isp][comap.AggMulti])
	}

	cos, aggs := st.Figure7()
	fmt.Println("\nFigure 7 — region sizes (paper: charter regions several times larger):")
	for _, isp := range []string{"comcast", "charter"} {
		fmt.Printf("  %-8s regions=%d COs/region=%v AggCOs/region=%v\n", isp, len(cos[isp]),
			summarize(cos[isp]), summarize(aggs[isp]))
	}

	fmt.Println("\nTables 3 and 4 — pipeline accounting:")
	for _, isp := range []string{"comcast", "charter"} {
		m := st.Table3(isp)
		p := st.Table4(isp)
		fmt.Printf("  %-8s mapping %d->%d (alias +%d ~%d -%d, subnet +%d ~%d); pruned backbone=%d cross=%d single=%d mpls=%d\n",
			isp, m.Initial, m.Final, m.AliasAdded, m.AliasChanged, m.AliasRemoved,
			m.SubnetAdded, m.SubnetChanged,
			p.BackboneCOAdjs, p.CrossRegionCOAdjs, p.SingleCOAdjs, p.MPLSCOAdjs)
	}

	for _, isp := range []string{"comcast", "charter"} {
		e := st.Entries(isp)
		fmt.Printf("§5.2.5 %-8s backbone entry pairs=%d regions<2=%d inter-region pairs=%d\n",
			isp, e.BackboneEntryPairs, e.RegionsUnderTwo, e.InterRegionPairs)
	}

	com := st.RedundancyStats("comcast")
	cha := st.RedundancyStats("charter")
	exSE := st.RedundancyStats("charter", "southeast")
	fmt.Printf("B.4 single-upstream: comcast=%.1f%% charter=%.1f%% (exSE %.1f%%); paper 11.4/37.7/29.0\n",
		100*com.SingleUpstreamFrac, 100*cha.SingleUpstreamFrac, 100*exSE.SingleUpstreamFrac)
	fmt.Printf("§5.5 EdgeCO:AggCO = %.1fx (paper 7.7x)\n",
		float64(com.EdgeCOs+cha.EdgeCOs)/float64(com.AggCOs+cha.AggCOs))
	fmt.Printf("§5.1 direct-targeting gain: comcast=%.1fx charter=%.1fx (paper 5.3x / 2.6x)\n",
		st.DirectTargetingGain("comcast"), st.DirectTargetingGain("charter"))

	fmt.Println("\nFigure 9 — Northeast medians (paper: CT worst from every cloud):")
	for _, r := range st.Figure9(50) {
		fmt.Printf("  %-7s %-10s %s %.1fms\n", r.Provider, r.Region, r.State, r.MedianMs)
	}

	fig := st.Figure10(30, 500)
	fmt.Println("\nFigure 10 — latency CDFs (paper: cloud at 5ms < 0.2; agg at 5ms > 0.8):")
	pts := []float64{5, 10, 15, 20, 30, 55}
	fmt.Printf("  cloud->edge %s\n  agg->edge   %s\n",
		fig.CloudToEdge.Series(pts), fig.AggToEdge.Series(pts))

	fmt.Println("\nvalidation (stand-in for §5.4):")
	for _, isp := range []string{"comcast", "charter"} {
		fmt.Printf("  %s mean CO F1 = %.3f\n", isp, st.Score(isp).MeanF1())
	}
}

func att(seed int64, cfg *cli.Config) {
	fmt.Printf("\n=== AT&T study (§6), seed %d ===\n", seed)
	st := launch("att", seed, cfg).(*core.ATTStudy)
	fig := st.Figure13()
	fmt.Printf("Figure 13: bb=%d agg=%d edge=%d routers; %d EdgeCOs; %d BackboneCO (mesh=%v); paper 2/4/84, 42, 1\n",
		fig.BackboneRouters, fig.AggRouters, fig.EdgeRouters, fig.EdgeCOs, fig.BackboneCOs, fig.FullMesh)
	edge, agg := st.Table6()
	fmt.Printf("Table 6: %d edge /24s + %d agg /24 (paper 6+1)\n", len(edge), len(agg))
	ark, mc := st.McComparison()
	fmt.Printf("§6.1 McTraceroute: ark=%d mc=%d paths, ratio %.2f (paper ~0.5)\n", ark, mc, float64(ark)/float64(mc))
	fmt.Printf("Table 2: %s\n", st.Table2(100))
	outliers, mean := st.LatencyOutliers(100)
	fmt.Printf("Table 2: mean=%.1fms outliers>2x=%d (paper 4.3ms, 2 outliers)\n", mean, outliers)
}

func mobile(seed int64, cfg *cli.Config) {
	fmt.Printf("\n=== mobile study (§7), seed %d ===\n", seed)
	st := launch("mobile", seed, cfg).(*core.MobileStudy)
	states, rates := st.Figure15()
	fmt.Printf("Figure 15: %d states (paper 40); success", len(states))
	for _, c := range core.CarrierNames {
		fmt.Printf(" %s=%.0f%%", c, 100*rates[c])
	}
	fmt.Println(" (paper 75-84%)")
	for _, r := range st.Figure14() {
		fmt.Printf("Figure 14: %-28s active=%v energy=%.1fmAh battery=%.1fd\n",
			r.Mode, r.Active.Round(time.Second), r.EnergymAh, r.BatteryDays)
	}
	for _, c := range core.CarrierNames {
		a := st.Analysis(c)
		fmt.Printf("Figure 16/17: %-10s user=/%d region=%v pgw=%v arch=%s providers=%v\n",
			c, a.UserPrefixLen, a.RegionField, a.PGWField, a.Arch, a.Providers)
	}
	for _, c := range []string{"att-mobile", "verizon"} {
		rows := st.PGWTable(c)
		exact := 0
		for _, r := range rows {
			if r.Inferred == r.Truth {
				exact++
			}
		}
		fmt.Printf("Table 7/8: %-10s %d/%d region PGW counts exact\n", c, exact, len(rows))
	}
	for _, c := range core.CarrierNames {
		hx := st.Figure18(c)
		var med float64
		if len(hx) > 0 {
			var vals []float64
			for _, h := range hx {
				vals = append(vals, h.Value)
			}
			med = summarizeMedian(vals)
		}
		fmt.Printf("Figure 18: %-10s hexes=%d median minRTT=%.0fms\n", c, len(hx), med)
	}
}

func summarize(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	return fmt.Sprintf("min=%.0f mean=%.0f max=%.0f", min, sum/float64(len(xs)), max)
}

func summarizeMedian(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j-1] > c[j]; j-- {
			c[j-1], c[j] = c[j], c[j-1]
		}
	}
	return c[len(c)/2]
}
