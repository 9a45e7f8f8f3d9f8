// Command regionmap runs the cable-ISP mapping study end to end (paper
// §5): it synthesizes the Comcast- and Charter-like operators, runs the
// traceroute/rDNS/alias campaign from the standard vantage points, runs
// both inference phases, and prints the regional topologies, the Table
// 1/3/4 statistics, and the ground-truth validation scores.
//
// Usage:
//
//	regionmap [-seed N] [-isp comcast|charter] [-region NAME] [-v]
//	          [-loss RATE] [-icmp-rate N] [-retries N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The -loss / -icmp-rate flags inject deterministic faults into the
// measurement plane (see netsim.FaultPlan); -retries opts the campaign
// into resilient probing. With any of the three set, a coverage report
// is printed to stderr alongside the usual output.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/comap"
	"repro/internal/core"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 7)
	isp := flag.String("isp", "comcast", "operator to report: comcast or charter")
	region := flag.String("region", "", "print one region's full CO graph")
	dot := flag.Bool("dot", false, "with -region: emit Graphviz DOT instead of text")
	asJSON := flag.Bool("json", false, "emit the full inference as JSON")
	resil := flag.Bool("resilience", false, "print the §8 failure-impact analysis per region")
	verbose := flag.Bool("v", false, "print every region summary")
	cfg.BindParallel(flag.CommandLine)
	cfg.BindBudget(flag.CommandLine)
	cfg.BindLoss(flag.CommandLine)
	cfg.BindICMPRate(flag.CommandLine)
	cfg.BindRetries(flag.CommandLine, 0)
	cfg.BindScale(flag.CommandLine)
	cfg.BindWindow(flag.CommandLine)
	cfg.BindProfiles(flag.CommandLine)
	flag.Parse()

	if *isp != "comcast" && *isp != "charter" {
		fmt.Fprintln(os.Stderr, "regionmap: -isp must be comcast or charter")
		os.Exit(2)
	}
	defer cfg.StartProfiling()()

	fmt.Fprintf(os.Stderr, "building scenario (seed %d) and running the %s campaign...\n", cfg.Seed, *isp)
	stAny, err := core.NewStudy("cable", cfg.Seed, cfg.Options()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regionmap:", err)
		os.Exit(2)
	}
	st := stAny.(*core.CableStudy)
	res := st.Result(*isp)
	defer st.Close() // Table1 below runs both operators; close the study, not just res
	if cfg.Faulted() {
		res.Coverage.Write(os.Stderr)
	}

	if *asJSON {
		if err := res.WriteJSON(os.Stdout, *isp); err != nil {
			fmt.Fprintln(os.Stderr, "regionmap:", err)
			os.Exit(1)
		}
		return
	}

	if *region != "" {
		g := res.Inference.Regions[*region]
		if g == nil {
			fmt.Fprintf(os.Stderr, "regionmap: region %q not found\n", *region)
			os.Exit(1)
		}
		if *dot {
			if err := g.WriteDOT(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "regionmap:", err)
				os.Exit(1)
			}
			return
		}
		printRegion(g)
		return
	}

	fmt.Printf("\n== %s: %d regions inferred ==\n", *isp, len(res.Inference.Regions))
	tbl := st.Table1()[*isp]
	fmt.Printf("aggregation types (Table 1): single=%d two=%d multi-level=%d\n",
		tbl[comap.AggSingle], tbl[comap.AggTwo], tbl[comap.AggMulti])

	m := st.Table3(*isp)
	fmt.Printf("mapping (Table 3): initial=%d alias(ch/add/rm)=%d/%d/%d subnet(ch/add)=%d/%d final=%d p2p=/%d\n",
		m.Initial, m.AliasChanged, m.AliasAdded, m.AliasRemoved,
		m.SubnetChanged, m.SubnetAdded, m.Final, res.Inference.P2PBits)

	p := st.Table4(*isp)
	fmt.Printf("pruning (Table 4): IP adjs=%d CO adjs=%d backbone=%d cross-region=%d single=%d mpls=%d\n",
		p.InitialIPAdjs, p.InitialCOAdjs, p.BackboneCOAdjs, p.CrossRegionCOAdjs, p.SingleCOAdjs, p.MPLSCOAdjs)

	e := st.Entries(*isp)
	fmt.Printf("entries (§5.2.5): backbone pairs=%d regions<2=%d inter-region pairs=%d\n",
		e.BackboneEntryPairs, e.RegionsUnderTwo, e.InterRegionPairs)

	r := st.RedundancyStats(*isp)
	fmt.Printf("redundancy (B.4): single-upstream=%.1f%% edge:agg=%.1fx\n",
		100*r.SingleUpstreamFrac, r.EdgePerAggRatio)

	if *verbose {
		names := make([]string, 0, len(res.Inference.Regions))
		for n := range res.Inference.Regions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			g := res.Inference.Regions[n]
			fmt.Printf("  %-14s COs=%-4d edges=%-4d aggs=%-3d type=%-11s entries=%d\n",
				n, len(g.COs), len(g.Edges), len(g.AggCOs()), g.Classify(), len(g.Entries))
		}
	}

	if *resil {
		fmt.Println("\nresilience (§8): worst single-CO failure and entry-loss survivability per region:")
		for _, rep := range st.Resilience(*isp) {
			worst, ok := rep.WorstCO()
			if !ok {
				continue
			}
			fmt.Printf("  %-14s worst-CO strands %3.0f%% (%s); survives entry loss: %v\n",
				rep.Region, 100*worst.Frac(), worst.Element, rep.EntryLossSurvivable())
		}
	}

	fmt.Printf("\nvalidation vs ground truth (stand-in for §5.4 operator interviews):\n%s", st.Score(*isp))
}

func printRegion(g *comap.RegionGraph) {
	fmt.Printf("region %s: %d COs, %d edges, type %s\n", g.Region, len(g.COs), len(g.Edges), g.Classify())
	fmt.Println("AggCOs:")
	for _, key := range g.AggCOs() {
		fmt.Printf("  %s (out-degree %d)\n", key, g.OutDegree(key))
	}
	fmt.Println("AggCO groups (shared fiber rings):")
	for _, grp := range g.AggGroups {
		fmt.Printf("  %v\n", grp)
	}
	fmt.Println("entries:")
	for _, e := range g.Entries {
		fmt.Printf("  %s -> %v\n", e.From, e.FirstCOs)
	}
	fmt.Println("edges:")
	type edge struct {
		a, b string
		n    int
	}
	var edges []edge
	for e, n := range g.Edges {
		edges = append(edges, edge{e[0], e[1], n})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		fmt.Printf("  %s -> %s (%d traces)\n", e.a, e.b, e.n)
	}
}
